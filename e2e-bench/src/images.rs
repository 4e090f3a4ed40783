//! Booting an image for a workload and driving one operation at a time.
//!
//! Every operation is a call into a public `userland` function on an
//! unmodified image (no interceptors attached), and every operation
//! checks its own output, so a fast but wrong image counts as failed.

use crate::Workload;
use sim_kernel::vfs::Mode;
use sim_kernel::Pid;
use userland::workload::{self, Service};
use userland::{boot, System, SystemMode};

/// Operations between two housekeeping passes for workloads that keep
/// state (mail spools, the print queue, the legacy mtab). Slices end on
/// a whole period, so per-op counts repeat exactly from run to run.
const PERIOD: u64 = 256;

/// Small deterministic generator (SplitMix64) for seeded inputs.
#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One privileged utility run: who runs what, with which terminal
/// input, and what a correct run exits with and prints. Expected exit
/// codes are the same on both images (the paper's Table 7 claim).
pub struct PrivOp {
    /// Short stable name.
    pub name: &'static str,
    user: usize,
    path: &'static str,
    args: &'static [&'static str],
    input: &'static [&'static str],
    code: i32,
    expect: &'static str,
}

const ALICE: usize = 0;
const BOB: usize = 1;
const CAROL: usize = 2;
const USERS: [(&str, &str); 3] = [("alice", "alicepw"), ("bob", "bobpw"), ("carol", "carolpw")];

/// The fixed privops table. `mount` always runs before `umount` in a
/// cycle, so every cycle leaves `/mnt/cdrom` unmounted.
pub const PRIVOPS: [PrivOp; 8] = [
    PrivOp {
        name: "mount",
        user: ALICE,
        path: "/bin/mount",
        args: &["/mnt/cdrom"],
        input: &[],
        code: 0,
        expect: "mounted",
    },
    PrivOp {
        name: "umount",
        user: ALICE,
        path: "/bin/umount",
        args: &["/mnt/cdrom"],
        input: &[],
        code: 0,
        expect: "unmounted",
    },
    PrivOp {
        name: "ping",
        user: ALICE,
        path: "/bin/ping",
        args: &["10.0.0.1"],
        input: &[],
        code: 0,
        expect: "64 bytes from",
    },
    PrivOp {
        name: "sudo-id",
        user: CAROL,
        path: "/usr/bin/sudo",
        args: &["/bin/id"],
        input: &["carolpw"],
        code: 0,
        expect: "euid=0",
    },
    PrivOp {
        name: "sudo-lpr",
        user: BOB,
        path: "/usr/bin/sudo",
        args: &["-u", "alice", "/usr/bin/lpr", "hello"],
        input: &["bobpw"],
        code: 0,
        expect: "job queued",
    },
    PrivOp {
        name: "su",
        user: ALICE,
        path: "/bin/su",
        args: &["bob"],
        input: &["bobpw"],
        code: 0,
        expect: "su: uid=1001 euid=1001",
    },
    PrivOp {
        name: "newgrp",
        user: ALICE,
        path: "/usr/bin/newgrp",
        args: &["staff"],
        input: &[],
        code: 0,
        expect: "newgrp: now gid=2000",
    },
    PrivOp {
        name: "sudo-denied",
        user: ALICE,
        path: "/usr/bin/sudo",
        args: &["/bin/id"],
        input: &["alicepw"],
        code: 1,
        expect: "sudo: ",
    },
];

/// The seeded privops order: each cycle of 8 is a fresh shuffle of
/// [`PRIVOPS`], with `mount` moved ahead of `umount`.
#[derive(Clone)]
pub struct PrivSeq {
    rng: Rng,
    order: [usize; 8],
    pos: usize,
}

impl PrivSeq {
    /// The sequence for `seed`.
    pub fn new(seed: u64) -> PrivSeq {
        PrivSeq {
            rng: Rng::new(seed),
            order: [0; 8],
            pos: 8,
        }
    }

    /// Index into [`PRIVOPS`] of the next operation.
    pub fn next_op(&mut self) -> usize {
        if self.pos == 8 {
            self.order = [0, 1, 2, 3, 4, 5, 6, 7];
            for i in (1..8).rev() {
                let j = self.rng.below(i + 1);
                self.order.swap(i, j);
            }
            let at = |op| self.order.iter().position(|&o| o == op);
            if let (Some(m), Some(u)) = (at(0), at(1)) {
                if u < m {
                    self.order.swap(m, u);
                }
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

enum Traffic {
    Web {
        srv: Service,
        client: Pid,
    },
    Mail {
        srv: Service,
        client: Pid,
        rng: Rng,
        /// Deliveries per recipient since the spools were last drained.
        pending: [usize; 2],
    },
    Privops {
        sessions: [Pid; 3],
        seq: PrivSeq,
        /// `/etc/mtab` as booted; the legacy mount(8) appends to it.
        mtab: Vec<u8>,
    },
}

const MAIL_RCPTS: [&str; 2] = ["alice", "bob"];

/// One worker's view of one booted image, ready to run operations.
pub(crate) struct Image {
    /// The system the operations run against.
    pub(crate) sys: System,
    traffic: Traffic,
    /// Operations run so far (warm-up included).
    pub(crate) done: u64,
}

/// Boots `mode` and brings up what `workload` drives: one [`Image`] per
/// worker (two for `shared_mix`, both on one kernel).
pub(crate) fn setup(workload: Workload, mode: SystemMode, seed: u64) -> Result<Vec<Image>, String> {
    let mut sys = boot(mode);
    let images = match workload {
        Workload::Web => {
            let srv = workload::start_web_service(&mut sys).map_err(err("start httpd"))?;
            vec![web(sys, srv)?]
        }
        Workload::Mail => {
            let srv = workload::start_mail_service(&mut sys).map_err(err("start exim4"))?;
            let client = workload::client_session(&mut sys).map_err(err("client login"))?;
            let traffic = Traffic::Mail {
                srv,
                client,
                rng: Rng::new(seed),
                pending: [0; 2],
            };
            vec![Image::new(sys, traffic)]
        }
        Workload::Privops => vec![privops(sys, seed)?],
        Workload::SharedMix => {
            let mut server = sys.worker_view();
            let srv = workload::start_shared_web_service(&mut server, 0)
                .map_err(err("start shared httpd"))?;
            vec![web(server, srv)?, privops(sys.worker_view(), seed)?]
        }
    };
    Ok(images)
}

fn err(what: &'static str) -> impl Fn(sim_kernel::Errno) -> String {
    move |e| format!("{what}: {e}")
}

fn web(mut sys: System, srv: Service) -> Result<Image, String> {
    let client = workload::client_session(&mut sys).map_err(err("client login"))?;
    Ok(Image::new(sys, Traffic::Web { srv, client }))
}

fn privops(mut sys: System, seed: u64) -> Result<Image, String> {
    let mut sessions = [Pid(0); 3];
    for (pid, (user, pw)) in sessions.iter_mut().zip(USERS) {
        *pid = sys.login(user, pw).map_err(err("privops login"))?;
    }
    let init = sys.init_pid();
    let mtab = sys
        .process(init)
        .read_file("/etc/mtab")
        .map_err(err("read /etc/mtab"))?;
    let traffic = Traffic::Privops {
        sessions,
        seq: PrivSeq::new(seed),
        mtab,
    };
    Ok(Image::new(sys, traffic))
}

impl Image {
    fn new(sys: System, traffic: Traffic) -> Image {
        Image {
            sys,
            traffic,
            done: 0,
        }
    }

    /// Operations per housekeeping period; slices end on a whole period.
    pub(crate) fn period(&self) -> u64 {
        match self.traffic {
            Traffic::Web { .. } => 1,
            Traffic::Mail { .. } | Traffic::Privops { .. } => PERIOD,
        }
    }

    /// Runs one operation; true when it completed with the correct
    /// output.
    pub(crate) fn op(&mut self) -> bool {
        let sys = &mut self.sys;
        match &mut self.traffic {
            Traffic::Web { srv, client } => workload::web_request(sys, *client, *srv).is_ok(),
            Traffic::Mail {
                srv,
                client,
                rng,
                pending,
            } => {
                let to = (rng.next_u64() & 1) as usize;
                let body = format!("seeded body {:016x}", rng.next_u64());
                let ok = workload::mail_delivery(sys, *client, *srv, MAIL_RCPTS[to], &body).is_ok();
                pending[to] += ok as usize;
                ok
            }
            Traffic::Privops { sessions, seq, .. } => {
                let op = &PRIVOPS[seq.next_op()];
                // Out of every authentication window: each run pays its
                // password check.
                sys.kernel.advance_clock(400);
                match sys.run(sessions[op.user], op.path, op.args, op.input) {
                    Ok(r) => r.code == op.code && r.stdout.contains(op.expect),
                    Err(_) => false,
                }
            }
        }
    }

    /// The consumer half of a closed loop, run once per [`PERIOD`]: mail
    /// checks that every acknowledged delivery reached its spool, then
    /// drains the spools; privops empties the print queue and restores
    /// `/etc/mtab`. Returns how many checks failed.
    pub(crate) fn housekeep(&mut self) -> u64 {
        let sys = &mut self.sys;
        let init = sys.init_pid();
        match &mut self.traffic {
            Traffic::Web { .. } => 0,
            Traffic::Mail { srv, pending, .. } => {
                let mut failed = 0;
                for (rcpt, want) in MAIL_RCPTS.iter().zip(pending.iter_mut()) {
                    let spool = sys
                        .kernel
                        .read_to_string(init, &format!("/var/mail/{rcpt}"))
                        .unwrap_or_default();
                    let got = spool.matches(&format!("From MTA: to {rcpt}\n")).count();
                    failed += (got != *want) as u64;
                    *want = 0;
                }
                workload::drain_spools(sys, *srv);
                failed
            }
            Traffic::Privops { mtab, .. } => {
                let mut os = sys.process(init);
                let queue = os.write_file("/var/spool/lpd/queue", b"", Mode(0o644));
                let table = os.write_file("/etc/mtab", mtab, Mode(0o644));
                queue.is_err() as u64 + table.is_err() as u64
            }
        }
    }

    /// Privilege-escalation artifacts and VFS namespace violations left
    /// on this image's kernel; empty when the image is sound.
    pub(crate) fn problems(&mut self) -> Vec<String> {
        let mut found = workload::privileged_artifacts(&mut self.sys);
        found.extend(workload::vfs_namespace_violations(&self.sys));
        found
    }
}
