//! Network system calls: socket, bind, listen/connect/accept, send/recv,
//! raw packet transmission, and routing-table ioctls.
//!
//! Three of the paper's eight privileged interfaces live here:
//!
//! * `socket` — raw/packet sockets require CAP_NET_RAW on stock Linux;
//!   Protego allows anyone but filters outgoing packets (§4.1.1).
//! * `bind` — ports <1024 require CAP_NET_BIND_SERVICE on stock Linux;
//!   Protego allocates each low port to a (binary, uid) pair (§4.1.3).
//! * routing ioctls — CAP_NET_ADMIN on stock Linux; Protego admits
//!   non-conflicting additions by unprivileged users (§4.1.2).
//!
//! Locking discipline: the socket table (`self.net`), netfilter chain, and
//! route table each sit behind their own [`crate::sync::Locked`] wrapper.
//! Guards are scoped so none is held across an audit emission, an LSM hook,
//! or a `simnet` delivery — see DESIGN.md §13 for the lock hierarchy.

use crate::caps::Cap;
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::lsm::{BindRequest, Decision};
use crate::net::{
    Domain, IcmpKind, Ipv4, Packet, PacketMeta, PortProto, Route, SockId, SockType, StreamState,
    Verdict, L4,
};
use crate::syscall::abi::NetfilterRule;
use crate::task::{Fd, FdObject, Pid};
use crate::trace::{AuditObject, DecisionKind, Hook, Pathway, Provenance};
use crate::vfs::Name;

/// Netfilter administration operations (the iptables backend).
#[derive(Clone, Debug)]
pub enum NetfilterOp {
    /// Append a rule to the OUTPUT chain.
    Append(crate::net::Rule),
    /// Insert a rule at the head of the chain.
    InsertFront(crate::net::Rule),
    /// Delete all rules with this name.
    DeleteByName(String),
    /// Remove every rule.
    Flush,
}

/// Routing-table operations carried by `SIOCADDRT`/`SIOCDELRT` ioctls.
#[derive(Clone, Debug)]
pub enum RouteOp {
    /// Add a route.
    Add(Route),
    /// Delete the route for (dest, prefix).
    Del {
        /// Destination network.
        dest: Ipv4,
        /// Prefix length.
        prefix: u8,
    },
}

impl Kernel {
    fn fd_socket(&self, pid: Pid, fd: i32) -> KResult<SockId> {
        match self.task(pid)?.fd(fd)?.object {
            FdObject::Socket(sid) => Ok(sid),
            _ => Err(Errno::ENOTCONN),
        }
    }

    /// `socket(2)`.
    pub fn sys_socket(
        &self,
        pid: Pid,
        domain: Domain,
        stype: SockType,
        protocol: u8,
    ) -> KResult<i32> {
        let cred = self.task(pid)?.cred.clone();
        let needs_raw_cap = matches!(stype, SockType::Raw) || matches!(domain, Domain::Packet);
        let (decision, rule) = self.lsm_hook(Pathway::LsmSocketCreate, |m| {
            m.socket_create(&cred, domain, stype, protocol)
        });
        match decision {
            Decision::UseDefault => {
                if needs_raw_cap && !self.capable(pid, Cap::NetRaw) {
                    let msg = format!(
                        "socket: raw socket denied for {} (no CAP_NET_RAW)",
                        cred.euid
                    );
                    self.emit_kernel_event(
                        pid,
                        "socket",
                        Hook::SocketCreate,
                        DecisionKind::Deny,
                        Some(Errno::EPERM),
                        AuditObject::None,
                        msg,
                    );
                    return Err(Errno::EPERM);
                }
            }
            Decision::Allow => {
                if needs_raw_cap {
                    let msg = format!(
                        "socket: lsm granted raw socket to {} (netfilter-scoped)",
                        cred.euid
                    );
                    self.emit_lsm_event(
                        pid,
                        "socket",
                        Hook::SocketCreate,
                        DecisionKind::Allow,
                        None,
                        rule,
                        AuditObject::None,
                        msg,
                    );
                }
            }
            Decision::Deny(e) => {
                let msg = format!("socket: lsm denied socket to {} ({})", cred.euid, e.name());
                self.emit_lsm_event(
                    pid,
                    "socket",
                    Hook::SocketCreate,
                    DecisionKind::Deny,
                    Some(e),
                    rule,
                    AuditObject::None,
                    msg,
                );
                return Err(e);
            }
        }
        let binary = self.task(pid)?.binary.clone();
        let sid = self
            .net
            .write()
            .alloc(domain, stype, protocol, pid.0, cred.euid, binary);
        self.task_mut(pid)?.fd_install(Fd {
            object: FdObject::Socket(sid),
            cloexec: false,
        })
    }

    /// `bind(2)`.
    pub fn sys_bind(&self, pid: Pid, fd: i32, addr: Ipv4, port: u16) -> KResult<()> {
        let sid = self.fd_socket(pid, fd)?;
        let stype = self.net.read().get(sid)?.stype;
        if port != 0 && port < 1024 && !matches!(stype, SockType::Raw) {
            let cred = self.task(pid)?.cred.clone();
            let req = BindRequest {
                port,
                binary: self.task(pid)?.binary.clone(),
                tcp: matches!(stype, SockType::Stream),
            };
            let object = AuditObject::Port { port, tcp: req.tcp };
            let (decision, rule) =
                self.lsm_hook(Pathway::LsmSocketBind, |m| m.socket_bind(&cred, &req));
            match decision {
                Decision::UseDefault => {
                    if !self.capable(pid, Cap::NetBindService) {
                        let msg = format!(
                            "bind: port {} denied for {} (no CAP_NET_BIND_SERVICE)",
                            port, cred.euid
                        );
                        self.emit_kernel_event(
                            pid,
                            "bind",
                            Hook::SocketBind,
                            DecisionKind::Deny,
                            Some(Errno::EACCES),
                            object,
                            msg,
                        );
                        return Err(Errno::EACCES);
                    }
                }
                Decision::Allow => {
                    let msg = format!(
                        "bind: lsm granted port {} to ({}, {})",
                        port, req.binary, cred.euid
                    );
                    self.emit_lsm_event(
                        pid,
                        "bind",
                        Hook::SocketBind,
                        DecisionKind::Allow,
                        None,
                        rule,
                        object,
                        msg,
                    );
                }
                Decision::Deny(e) => {
                    let msg = format!(
                        "bind: lsm denied port {} to ({}, {})",
                        port, req.binary, cred.euid
                    );
                    self.emit_lsm_event(
                        pid,
                        "bind",
                        Hook::SocketBind,
                        DecisionKind::Deny,
                        Some(e),
                        rule,
                        object,
                        msg,
                    );
                    return Err(e);
                }
            }
        }
        self.net.write().bind(sid, addr, port)
    }

    /// `listen(2)`.
    pub fn sys_listen(&self, pid: Pid, fd: i32) -> KResult<()> {
        let sid = self.fd_socket(pid, fd)?;
        let mut net = self.net.write();
        let s = net.get_mut(sid)?;
        if !matches!(s.stype, SockType::Stream) {
            return Err(Errno::EOPNOTSUPP);
        }
        if s.bound.is_none() {
            return Err(Errno::EINVAL);
        }
        s.state = StreamState::Listening;
        Ok(())
    }

    /// `connect(2)`.
    pub fn sys_connect(&self, pid: Pid, fd: i32, addr: Ipv4, port: u16) -> KResult<()> {
        let sid = self.fd_socket(pid, fd)?;
        let stype = self.net.read().get(sid)?.stype;
        match stype {
            SockType::Dgram | SockType::Raw => {
                self.net.write().get_mut(sid)?.connected = Some((addr, port));
                Ok(())
            }
            SockType::Stream => {
                if self.simnet.is_local(addr) {
                    // Loopback connection to a local listener. The whole
                    // handshake mutates only the socket table, so one write
                    // guard covers it.
                    let mut net = self.net.write();
                    let listener = net
                        .port_owner(PortProto::Tcp, port)
                        .filter(|s| s.state == StreamState::Listening)
                        .map(|s| (s.id, s.owner_pid, s.owner_uid, s.owner_binary.clone()))
                        .ok_or(Errno::ECONNREFUSED)?;
                    let conn = net.alloc(
                        Domain::Inet,
                        SockType::Stream,
                        0,
                        listener.1,
                        listener.2,
                        listener.3,
                    );
                    net.get_mut(conn)?.bound = Some((addr, port));
                    net.make_pair(sid, conn)?;
                    net.get_mut(sid)?.connected = Some((addr, port));
                    net.get_mut(listener.0)?.backlog.push_back(conn);
                    Ok(())
                } else {
                    if self.routes.read().lookup(addr).is_none() {
                        return Err(Errno::ENETUNREACH);
                    }
                    if !self.simnet.tcp_accepts(addr, port) {
                        return Err(Errno::ECONNREFUSED);
                    }
                    let mut net = self.net.write();
                    let s = net.get_mut(sid)?;
                    s.connected = Some((addr, port));
                    s.state = StreamState::Connected;
                    Ok(())
                }
            }
        }
    }

    /// `accept(2)` — returns a new fd for the next pending connection.
    pub fn sys_accept(&self, pid: Pid, fd: i32) -> KResult<i32> {
        let sid = self.fd_socket(pid, fd)?;
        let conn = {
            let mut net = self.net.write();
            let s = net.get_mut(sid)?;
            if s.state != StreamState::Listening {
                return Err(Errno::EINVAL);
            }
            s.backlog.pop_front().ok_or(Errno::EAGAIN)?
        };
        self.task_mut(pid)?.fd_install(Fd {
            object: FdObject::Socket(conn),
            cloexec: false,
        })
    }

    /// `send(2)` on a connected socket.
    pub fn sys_send(&self, pid: Pid, fd: i32, data: &[u8]) -> KResult<usize> {
        let sid = self.fd_socket(pid, fd)?;
        let (stype, peer, connected, state) = {
            let net = self.net.read();
            let s = net.get(sid)?;
            (s.stype, s.peer, s.connected, s.state)
        };
        match stype {
            SockType::Stream => {
                if let Some(peer) = peer {
                    let mut net = self.net.write();
                    let p = net.get_mut(peer)?;
                    p.rx_bytes.extend(data.iter().copied());
                    Ok(data.len())
                } else if let Some((addr, port)) = connected {
                    if state != StreamState::Connected {
                        return Err(Errno::ENOTCONN);
                    }
                    // Remote echo service answers; other services consume.
                    if port == 7 {
                        let mut net = self.net.write();
                        let me = net.get_mut(sid)?;
                        me.rx_bytes.extend(data.iter().copied());
                    }
                    let _ = addr;
                    Ok(data.len())
                } else {
                    Err(Errno::ENOTCONN)
                }
            }
            SockType::Dgram => {
                let (addr, port) = connected.ok_or(Errno::ENOTCONN)?;
                self.sys_sendto(pid, fd, addr, port, data)
            }
            SockType::Raw => Err(Errno::EINVAL),
        }
    }

    /// `recv(2)` on a stream socket.
    pub fn sys_recv(&self, pid: Pid, fd: i32, max: usize) -> KResult<Vec<u8>> {
        let sid = self.fd_socket(pid, fd)?;
        let mut net = self.net.write();
        let s = net.get_mut(sid)?;
        match s.stype {
            SockType::Stream => {
                if s.rx_bytes.is_empty() {
                    return match s.state {
                        StreamState::Reset => Ok(Vec::new()),
                        _ => Err(Errno::EAGAIN),
                    };
                }
                let n = max.min(s.rx_bytes.len());
                Ok(s.rx_bytes.drain(..n).collect())
            }
            _ => Err(Errno::EOPNOTSUPP),
        }
    }

    /// `recvfrom(2)` on a datagram/raw socket: returns the next packet.
    pub fn sys_recv_packet(&self, pid: Pid, fd: i32) -> KResult<Packet> {
        let sid = self.fd_socket(pid, fd)?;
        let mut net = self.net.write();
        let s = net.get_mut(sid)?;
        s.rx_packets.pop_front().ok_or(Errno::EAGAIN)
    }

    /// `sendto(2)` on a UDP socket: the kernel builds the headers, so the
    /// source port cannot be forged.
    pub fn sys_sendto(
        &self,
        pid: Pid,
        fd: i32,
        addr: Ipv4,
        port: u16,
        data: &[u8],
    ) -> KResult<usize> {
        let sid = self.fd_socket(pid, fd)?;
        if self.net.read().get(sid)?.bound.is_none() {
            self.net.write().bind(sid, Ipv4::ANY, 0)?;
        }
        let src_port = {
            let net = self.net.read();
            let s = net.get(sid)?;
            if !matches!(s.stype, SockType::Dgram) {
                return Err(Errno::EOPNOTSUPP);
            }
            s.bound.map(|b| b.1).unwrap_or(0)
        };
        let cred_uid = self.task(pid)?.cred.euid;
        let pkt = Packet {
            src: self
                .simnet
                .local_ips
                .last()
                .copied()
                .unwrap_or(Ipv4::LOOPBACK),
            dst: addr,
            ttl: 64,
            l4: L4::Udp {
                src_port,
                dst_port: port,
            },
            payload: data.to_vec(),
            from_raw_socket: false,
            sender_uid: cred_uid,
        };
        self.transmit(pid, sid, pkt)?;
        Ok(data.len())
    }

    /// Raw transmission: the caller constructed all headers (§4.1.1). The
    /// packet is subject to the OUTPUT netfilter chain with spoof analysis.
    pub fn sys_send_packet(&self, pid: Pid, fd: i32, mut pkt: Packet) -> KResult<()> {
        let sid = self.fd_socket(pid, fd)?;
        {
            let net = self.net.read();
            let s = net.get(sid)?;
            if !matches!(s.stype, SockType::Raw) && !matches!(s.domain, Domain::Packet) {
                return Err(Errno::EOPNOTSUPP);
            }
        }
        pkt.from_raw_socket = true;
        pkt.sender_uid = self.task(pid)?.cred.euid;
        self.transmit(pid, sid, pkt)
    }

    /// Common output path: netfilter, then routing, then delivery; replies
    /// are queued on the sending socket.
    fn transmit(&self, pid: Pid, sid: SockId, pkt: Packet) -> KResult<()> {
        // Spoof analysis: does the claimed source port belong to a socket
        // of a different user?
        let spoofed = match (&pkt.l4, pkt.from_raw_socket) {
            (L4::Tcp { src_port, .. }, true) | (L4::Udp { src_port, .. }, true) => self
                .net
                .read()
                .port_owner(
                    if matches!(pkt.l4, L4::Tcp { .. }) {
                        PortProto::Tcp
                    } else {
                        PortProto::Udp
                    },
                    *src_port,
                )
                .map(|owner| owner.owner_uid != pkt.sender_uid)
                .unwrap_or(false),
            _ => false,
        };
        // The write guard is scoped to this one statement: `evaluate`
        // updates per-rule hit counters, and the guard must be gone before
        // the audit emission below.
        let eval = self.netfilter.write().evaluate(&PacketMeta {
            packet: &pkt,
            spoofed_src_port: spoofed,
        });
        if eval.verdict == Verdict::Drop {
            let msg = format!(
                "netfilter: dropped {:?} from {} (rule {:?})",
                pkt.l4,
                pkt.sender_uid,
                eval.rule.map(Name::as_str)
            );
            // The matched netfilter rule is the provenance here, so build
            // it explicitly rather than through emit_lsm_event.
            let provenance = Provenance::lsm(
                "netfilter",
                Hook::Netfilter,
                eval.rule,
                DecisionKind::Deny,
                Some(Errno::EPERM),
            );
            let object = AuditObject::Packet(format!("{:?} -> {}", pkt.l4, pkt.dst));
            self.emit_event(pid.0, "send", object, provenance, msg);
            return Err(Errno::EPERM);
        }

        if self.simnet.is_local(pkt.dst) {
            self.deliver_local(pkt);
            return Ok(());
        }
        if self.routes.read().lookup(pkt.dst).is_none() {
            return Err(Errno::ENETUNREACH);
        }
        let replies = self.simnet.deliver(&pkt);
        let mut net = self.net.write();
        for reply in replies {
            // Replies route back to the socket that sent the probe, unless
            // a bound UDP port matches more precisely.
            if let L4::Udp { dst_port, .. } = reply.l4 {
                if let Some(owner) = net.port_owner(PortProto::Udp, dst_port) {
                    let oid = owner.id;
                    net.get_mut(oid)?.rx_packets.push_back(reply);
                    continue;
                }
            }
            net.get_mut(sid)?.rx_packets.push_back(reply);
        }
        Ok(())
    }

    /// Delivers a packet addressed to this machine.
    fn deliver_local(&self, pkt: Packet) {
        match &pkt.l4 {
            L4::Udp { dst_port, .. } => {
                let mut net = self.net.write();
                if let Some(owner) = net.port_owner(PortProto::Udp, *dst_port) {
                    let oid = owner.id;
                    if let Ok(s) = net.get_mut(oid) {
                        s.rx_packets.push_back(pkt);
                    }
                }
            }
            L4::Icmp(IcmpKind::EchoRequest { id, seq }) => {
                // The local stack answers pings to itself.
                let reply = Packet {
                    src: pkt.dst,
                    dst: pkt.src,
                    ttl: 64,
                    l4: L4::Icmp(IcmpKind::EchoReply { id: *id, seq: *seq }),
                    payload: pkt.payload.clone(),
                    from_raw_socket: false,
                    sender_uid: crate::cred::Uid::ROOT,
                };
                // Deliver the reply to raw ICMP sockets of the original
                // sender's uid. One write guard covers scan and delivery.
                let mut net = self.net.write();
                let targets: Vec<SockId> = (0..)
                    .map_while(|i| {
                        net.get(SockId(i))
                            .ok()
                            .map(|s| (s.id, s.stype, s.owner_uid))
                    })
                    .filter(|(_, st, uid)| matches!(st, SockType::Raw) && *uid == pkt.sender_uid)
                    .map(|(id, _, _)| id)
                    .collect();
                for t in targets {
                    if let Ok(s) = net.get_mut(t) {
                        s.rx_packets.push_back(reply.clone());
                    }
                }
            }
            _ => {}
        }
    }

    /// `socketpair(2)` (AF_UNIX, SOCK_STREAM).
    pub fn sys_socketpair(&self, pid: Pid) -> KResult<(i32, i32)> {
        let cred = self.task(pid)?.cred.clone();
        let binary = self.task(pid)?.binary.clone();
        let (a, b) = {
            let mut net = self.net.write();
            let a = net.alloc(
                Domain::Unix,
                SockType::Stream,
                0,
                pid.0,
                cred.euid,
                binary.clone(),
            );
            let b = net.alloc(Domain::Unix, SockType::Stream, 0, pid.0, cred.euid, binary);
            net.make_pair(a, b)?;
            (a, b)
        };
        let mut t = self.task_mut(pid)?;
        let fa = t.fd_install(Fd {
            object: FdObject::Socket(a),
            cloexec: false,
        })?;
        let fb = t.fd_install(Fd {
            object: FdObject::Socket(b),
            cloexec: false,
        })?;
        Ok((fa, fb))
    }

    /// Netfilter administration (the iptables backend): appending,
    /// deleting, or flushing OUTPUT rules requires CAP_NET_ADMIN.
    pub fn sys_netfilter(&self, pid: Pid, op: NetfilterOp) -> KResult<()> {
        if !self.capable(pid, Cap::NetAdmin) {
            return Err(Errno::EPERM);
        }
        let mut nf = self.netfilter.write();
        match op {
            NetfilterOp::Append(rule) => nf.append(rule),
            NetfilterOp::InsertFront(rule) => nf.insert_front(rule),
            NetfilterOp::DeleteByName(name) => {
                if nf.delete_by_name(&name) == 0 {
                    return Err(Errno::ENOENT);
                }
            }
            NetfilterOp::Flush => nf.flush(),
        }
        Ok(())
    }

    /// Lists the OUTPUT chain (iptables -L). Readable by anyone, as rule
    /// listing discloses no secrets in this model.
    pub fn sys_netfilter_list(&self, pid: Pid) -> KResult<Vec<NetfilterRule>> {
        self.task(pid)?;
        Ok(self
            .netfilter
            .read()
            .rules()
            .iter()
            .map(NetfilterRule::from)
            .collect())
    }

    /// Routing-table ioctls (`SIOCADDRT` / `SIOCDELRT`).
    pub fn sys_ioctl_route(&self, pid: Pid, op: RouteOp) -> KResult<()> {
        match op {
            RouteOp::Add(mut route) => {
                let cred = self.task(pid)?.cred.clone();
                let object = AuditObject::Route(format!(
                    "{}/{} via {}",
                    route.dest, route.prefix, route.dev
                ));
                // The hook inspects the current table for conflicts
                // (§4.1.2); both guards drop before any emission below.
                let (decision, rule) = {
                    let routes = self.routes.read();
                    self.lsm_hook(Pathway::LsmIoctl, |m| {
                        m.ioctl_route_add(&cred, &route, &routes)
                    })
                };
                match decision {
                    Decision::UseDefault => {
                        if !self.capable(pid, Cap::NetAdmin) {
                            let msg = format!(
                                "route: add {}/{} denied for {} (no CAP_NET_ADMIN)",
                                route.dest, route.prefix, cred.ruid
                            );
                            self.emit_kernel_event(
                                pid,
                                "ioctl",
                                Hook::IoctlRoute,
                                DecisionKind::Deny,
                                Some(Errno::EPERM),
                                object,
                                msg,
                            );
                            return Err(Errno::EPERM);
                        }
                    }
                    Decision::Allow => {
                        let msg = format!(
                            "route: lsm granted {}/{} via {} to {}",
                            route.dest, route.prefix, route.dev, cred.ruid
                        );
                        self.emit_lsm_event(
                            pid,
                            "ioctl",
                            Hook::IoctlRoute,
                            DecisionKind::Allow,
                            None,
                            rule,
                            object,
                            msg,
                        );
                    }
                    Decision::Deny(e) => {
                        let msg = format!(
                            "route: lsm denied {}/{} to {} ({})",
                            route.dest,
                            route.prefix,
                            cred.ruid,
                            e.name()
                        );
                        self.emit_lsm_event(
                            pid,
                            "ioctl",
                            Hook::IoctlRoute,
                            DecisionKind::Deny,
                            Some(e),
                            rule,
                            object,
                            msg,
                        );
                        return Err(e);
                    }
                }
                route.created_by = self.task(pid)?.cred.ruid;
                self.routes.write().add(route)
            }
            RouteOp::Del { dest, prefix } => {
                let cred = self.task(pid)?.cred.clone();
                let owner = {
                    let routes = self.routes.read();
                    routes
                        .routes()
                        .iter()
                        .find(|r| {
                            r.dest.network(prefix) == dest.network(prefix) && r.prefix == prefix
                        })
                        .map(|r| r.created_by)
                        .ok_or(Errno::ENOENT)?
                };
                if owner != cred.ruid && !self.capable(pid, Cap::NetAdmin) {
                    let msg = format!(
                        "route: del {}/{} denied for {} (not owner, no CAP_NET_ADMIN)",
                        dest, prefix, cred.ruid
                    );
                    self.emit_kernel_event(
                        pid,
                        "ioctl",
                        Hook::IoctlRoute,
                        DecisionKind::Deny,
                        Some(Errno::EPERM),
                        AuditObject::Route(format!("{}/{}", dest, prefix)),
                        msg,
                    );
                    return Err(Errno::EPERM);
                }
                self.routes.write().remove(dest, prefix)?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{Credentials, Gid, Uid};
    use crate::net::SimNet;

    fn boot() -> (Kernel, Pid, Pid) {
        let k = Kernel::new(SimNet::standard_topology());
        let root = k.spawn_init();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        // Default route so remote sends work.
        k.routes
            .write()
            .add(Route {
                dest: Ipv4::ANY,
                prefix: 0,
                gateway: Some(Ipv4::new(10, 0, 0, 1)),
                dev: "eth0".into(),
                created_by: Uid::ROOT,
            })
            .unwrap();
        (k, root, user)
    }

    #[test]
    fn user_udp_socket_ok_raw_denied() {
        let (k, _, user) = boot();
        assert!(k.sys_socket(user, Domain::Inet, SockType::Dgram, 0).is_ok());
        assert_eq!(
            k.sys_socket(user, Domain::Inet, SockType::Raw, 1)
                .unwrap_err(),
            Errno::EPERM
        );
        assert_eq!(
            k.sys_socket(user, Domain::Packet, SockType::Dgram, 0)
                .unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn root_raw_socket_ok() {
        let (k, root, _) = boot();
        assert!(k.sys_socket(root, Domain::Inet, SockType::Raw, 1).is_ok());
    }

    #[test]
    fn low_port_bind_requires_cap() {
        let (k, root, user) = boot();
        let fd_u = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        assert_eq!(
            k.sys_bind(user, fd_u, Ipv4::ANY, 80).unwrap_err(),
            Errno::EACCES
        );
        let fd_r = k
            .sys_socket(root, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        k.sys_bind(root, fd_r, Ipv4::ANY, 80).unwrap();
        // High ports are free for everyone.
        let fd_u2 = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        k.sys_bind(user, fd_u2, Ipv4::ANY, 8080).unwrap();
    }

    #[test]
    fn loopback_stream_roundtrip() {
        let (k, _, user) = boot();
        let srv = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        k.sys_bind(user, srv, Ipv4::ANY, 8080).unwrap();
        k.sys_listen(user, srv).unwrap();
        let cli = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        k.sys_connect(user, cli, Ipv4::LOOPBACK, 8080).unwrap();
        let conn = k.sys_accept(user, srv).unwrap();
        k.sys_send(user, cli, b"GET / HTTP/1.0\r\n").unwrap();
        let got = k.sys_recv(user, conn, 1024).unwrap();
        assert_eq!(got, b"GET / HTTP/1.0\r\n");
        k.sys_send(user, conn, b"200 OK").unwrap();
        assert_eq!(k.sys_recv(user, cli, 1024).unwrap(), b"200 OK");
    }

    #[test]
    fn connect_refused_without_listener() {
        let (k, _, user) = boot();
        let cli = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        assert_eq!(
            k.sys_connect(user, cli, Ipv4::LOOPBACK, 9999).unwrap_err(),
            Errno::ECONNREFUSED
        );
    }

    #[test]
    fn remote_tcp_connect() {
        let (k, _, user) = boot();
        let cli = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        k.sys_connect(user, cli, Ipv4::new(8, 8, 8, 8), 80).unwrap();
        let cli2 = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        assert_eq!(
            k.sys_connect(user, cli2, Ipv4::new(8, 8, 8, 8), 25)
                .unwrap_err(),
            Errno::ECONNREFUSED
        );
    }

    #[test]
    fn no_route_is_enetunreach() {
        let (k, _, user) = boot();
        k.routes.write().remove(Ipv4::ANY, 0).unwrap();
        let cli = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        assert_eq!(
            k.sys_connect(user, cli, Ipv4::new(8, 8, 8, 8), 80)
                .unwrap_err(),
            Errno::ENETUNREACH
        );
    }

    #[test]
    fn root_ping_roundtrip_via_raw_socket() {
        let (k, root, _) = boot();
        let fd = k.sys_socket(root, Domain::Inet, SockType::Raw, 1).unwrap();
        let pkt = Packet::echo_request(
            Ipv4::new(10, 0, 0, 100),
            Ipv4::new(8, 8, 8, 8),
            7,
            1,
            Uid::ROOT,
        );
        k.sys_send_packet(root, fd, pkt).unwrap();
        let reply = k.sys_recv_packet(root, fd).unwrap();
        assert_eq!(reply.l4, L4::Icmp(IcmpKind::EchoReply { id: 7, seq: 1 }));
    }

    #[test]
    fn udp_sendto_and_remote_echo() {
        let (k, _, user) = boot();
        let fd = k
            .sys_socket(user, Domain::Inet, SockType::Dgram, 0)
            .unwrap();
        // Port 7 on 8.8.8.8 echoes.
        k.sys_sendto(user, fd, Ipv4::new(8, 8, 8, 8), 7, b"hi")
            .unwrap();
        let reply = k.sys_recv_packet(user, fd).unwrap();
        assert_eq!(reply.payload, b"hi");
    }

    #[test]
    fn local_udp_delivery() {
        let (k, _, user) = boot();
        let rx = k
            .sys_socket(user, Domain::Inet, SockType::Dgram, 0)
            .unwrap();
        k.sys_bind(user, rx, Ipv4::ANY, 5000).unwrap();
        let tx = k
            .sys_socket(user, Domain::Inet, SockType::Dgram, 0)
            .unwrap();
        k.sys_sendto(user, tx, Ipv4::LOOPBACK, 5000, b"msg")
            .unwrap();
        let got = k.sys_recv_packet(user, rx).unwrap();
        assert_eq!(got.payload, b"msg");
    }

    #[test]
    fn socketpair_roundtrip() {
        let (k, _, user) = boot();
        let (a, b) = k.sys_socketpair(user).unwrap();
        k.sys_send(user, a, b"ping").unwrap();
        assert_eq!(k.sys_recv(user, b, 16).unwrap(), b"ping");
        k.sys_send(user, b, b"pong").unwrap();
        assert_eq!(k.sys_recv(user, a, 16).unwrap(), b"pong");
    }

    #[test]
    fn route_add_requires_cap_on_stock() {
        let (k, root, user) = boot();
        let r = Route {
            dest: Ipv4::new(192, 168, 7, 0),
            prefix: 24,
            gateway: None,
            dev: "ppp0".into(),
            created_by: Uid(1000),
        };
        assert_eq!(
            k.sys_ioctl_route(user, RouteOp::Add(r.clone()))
                .unwrap_err(),
            Errno::EPERM
        );
        k.sys_ioctl_route(root, RouteOp::Add(r)).unwrap();
        assert_eq!(k.routes.read().len(), 2);
    }

    #[test]
    fn route_del_owner_or_cap() {
        let (k, root, user) = boot();
        assert_eq!(
            k.sys_ioctl_route(
                user,
                RouteOp::Del {
                    dest: Ipv4::ANY,
                    prefix: 0
                }
            )
            .unwrap_err(),
            Errno::EPERM
        );
        k.sys_ioctl_route(
            root,
            RouteOp::Del {
                dest: Ipv4::ANY,
                prefix: 0,
            },
        )
        .unwrap();
        assert!(k.routes.read().is_empty());
    }

    #[test]
    fn recv_on_empty_socket_is_eagain() {
        let (k, _, user) = boot();
        let fd = k
            .sys_socket(user, Domain::Inet, SockType::Dgram, 0)
            .unwrap();
        assert_eq!(k.sys_recv_packet(user, fd).unwrap_err(), Errno::EAGAIN);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::cred::{Credentials, Gid, Uid};
    use crate::net::SimNet;

    fn boot() -> (Kernel, Pid) {
        let k = Kernel::new(SimNet::standard_topology());
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        (k, user)
    }

    #[test]
    fn accept_on_non_listener_is_einval() {
        let (k, u) = boot();
        let fd = k.sys_socket(u, Domain::Inet, SockType::Stream, 0).unwrap();
        assert_eq!(k.sys_accept(u, fd).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn listen_requires_bind() {
        let (k, u) = boot();
        let fd = k.sys_socket(u, Domain::Inet, SockType::Stream, 0).unwrap();
        assert_eq!(k.sys_listen(u, fd).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn listen_on_dgram_is_eopnotsupp() {
        let (k, u) = boot();
        let fd = k.sys_socket(u, Domain::Inet, SockType::Dgram, 0).unwrap();
        assert_eq!(k.sys_listen(u, fd).unwrap_err(), Errno::EOPNOTSUPP);
    }

    #[test]
    fn send_on_unconnected_stream_is_enotconn() {
        let (k, u) = boot();
        let fd = k.sys_socket(u, Domain::Inet, SockType::Stream, 0).unwrap();
        assert_eq!(k.sys_send(u, fd, b"x").unwrap_err(), Errno::ENOTCONN);
    }

    #[test]
    fn recv_after_peer_close_is_eof() {
        let (k, u) = boot();
        let (a, b) = k.sys_socketpair(u).unwrap();
        k.sys_send(u, a, b"bye").unwrap();
        k.sys_close(u, a).unwrap();
        // Buffered data still drains...
        assert_eq!(k.sys_recv(u, b, 16).unwrap(), b"bye");
        // ...then EOF (empty read) rather than an error.
        assert_eq!(k.sys_recv(u, b, 16).unwrap(), b"");
    }

    #[test]
    fn socket_ops_on_file_fd_fail_cleanly() {
        let (k, u) = boot();
        k.vfs.mkdir_p("/tmp").unwrap();
        let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
        k.vfs.inode_mut(t).mode = crate::vfs::Mode(0o1777);
        k.write_file(u, "/tmp/f", b"", crate::vfs::Mode(0o644))
            .unwrap();
        let fd = k
            .sys_open(u, "/tmp/f", crate::syscall::OpenFlags::read_only())
            .unwrap();
        assert_eq!(k.sys_send(u, fd, b"x").unwrap_err(), Errno::ENOTCONN);
        assert_eq!(
            k.sys_bind(u, fd, Ipv4::ANY, 8080).unwrap_err(),
            Errno::ENOTCONN
        );
    }

    #[test]
    fn udp_connect_then_send_uses_sendto_path() {
        let (k, u) = boot();
        let rx = k.sys_socket(u, Domain::Inet, SockType::Dgram, 0).unwrap();
        k.sys_bind(u, rx, Ipv4::ANY, 7100).unwrap();
        let tx = k.sys_socket(u, Domain::Inet, SockType::Dgram, 0).unwrap();
        k.sys_connect(u, tx, Ipv4::LOOPBACK, 7100).unwrap();
        k.sys_send(u, tx, b"dgram").unwrap();
        assert_eq!(k.sys_recv_packet(u, rx).unwrap().payload, b"dgram");
    }
}
