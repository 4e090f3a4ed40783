//! The Table 5 macro workloads `userland::workload` does not already
//! drive: the kernel-compile stand-in and ApacheBench's batches of
//! concurrent connections. The Postal row drives
//! [`userland::workload::mail_delivery`] directly.

use crate::Fixture;
use sim_kernel::vfs::Mode;
use userland::bins::mail;
use userland::workload::Service;

/// Result of a throughput workload.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock nanoseconds.
    pub elapsed_ns: u128,
}

impl Throughput {
    /// Nanoseconds per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.elapsed_ns as f64 / self.ops as f64
    }
}

/// The kernel-compile stand-in: per "translation unit", fork+exec a
/// compiler process that reads the source and writes an object file —
/// the fork/exec/open/read/write mix that dominates a real build.
pub fn compile(f: &mut Fixture, units: u64) -> Throughput {
    // Lay out the "source tree" once.
    for i in 0..units {
        let _ = f.sys.kernel.write_file(
            f.user,
            &format!("/tmp/src{}.c", i),
            b"int main(void) { return 0; }\n",
            Mode(0o644),
        );
    }
    let start = std::time::Instant::now();
    for i in 0..units {
        // cc: fork + exec + read source + write object.
        let _ = f.sys.run(f.user, "/bin/sh", &[], &[]);
        let src = f
            .sys
            .kernel
            .read_file(f.user, &format!("/tmp/src{}.c", i))
            .unwrap_or_default();
        let _ = f
            .sys
            .kernel
            .write_file(f.user, &format!("/tmp/src{}.o", i), &src, Mode(0o644));
    }
    let t = Throughput {
        ops: units,
        elapsed_ns: start.elapsed().as_nanos(),
    };
    for i in 0..units {
        let _ = f.sys.kernel.sys_unlink(f.user, &format!("/tmp/src{}.c", i));
        let _ = f.sys.kernel.sys_unlink(f.user, &format!("/tmp/src{}.o", i));
    }
    t
}

/// ApacheBench: `requests` HTTP round-trips to `srv` issued in batches
/// of `concurrency` open connections (connect all, serve all, read all).
pub fn apache_bench(f: &mut Fixture, srv: Service, requests: u64, concurrency: u64) -> Throughput {
    use sim_kernel::net::{Domain, Ipv4, SockType};
    let start = std::time::Instant::now();
    let mut done = 0u64;
    while done < requests {
        let batch = concurrency.min(requests - done);
        let mut clients = Vec::with_capacity(batch as usize);
        for _ in 0..batch {
            if let Ok(cli) = f
                .sys
                .kernel
                .sys_socket(f.user, Domain::Inet, SockType::Stream, 0)
            {
                if f.sys
                    .kernel
                    .sys_connect(f.user, cli, Ipv4::LOOPBACK, srv.port)
                    .is_ok()
                {
                    let _ = f
                        .sys
                        .kernel
                        .sys_send(f.user, cli, b"GET / HTTP/1.0\r\n\r\n");
                    clients.push(cli);
                }
            }
        }
        for _ in 0..clients.len() {
            let _ = mail::httpd_serve_one(&mut f.sys, srv.pid, srv.listen_fd);
        }
        for cli in clients {
            let mut resp = Vec::new();
            let _ = f.sys.kernel.sys_recv(f.user, cli, &mut resp, 65536);
            let _ = f.sys.kernel.sys_close(f.user, cli);
            done += 1;
        }
    }
    Throughput {
        ops: requests,
        elapsed_ns: start.elapsed().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use userland::SystemMode;

    #[test]
    fn compile_runs_and_cleans_up() {
        let mut f = fixture(SystemMode::Protego);
        let t = compile(&mut f, 5);
        assert_eq!(t.ops, 5);
        assert!(f.sys.kernel.read_file(f.user, "/tmp/src0.o").is_err());
    }

    #[test]
    fn apache_bench_serves_all_requests() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut f = fixture(mode);
            let web = userland::workload::start_web_service(&mut f.sys).expect("httpd");
            let t = apache_bench(&mut f, web, 20, 5);
            assert_eq!(t.ops, 20);
            assert!(t.ns_per_op() > 0.0);
        }
    }
}
