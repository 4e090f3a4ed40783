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
use crate::cred::Uid;
use crate::error::{Errno, KResult};
use crate::kernel::{Kernel, Site};
use crate::lsm::{BindRequest, SecurityModule};
use crate::net::{
    Domain, IcmpKind, Ipv4, Packet, PacketMeta, PortProto, Route, SockId, SockType, StreamState,
    Verdict, L4,
};
use crate::syscall::abi::NetfilterRule;
use crate::task::{Fd, FdObject, Pid, Task};
use crate::trace::{AuditObject, DecisionKind, Hook, Provenance};
use std::cell::Cell;

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
        let needs_raw_cap = matches!(stype, SockType::Raw) || matches!(domain, Domain::Packet);
        // Only raw and packet sockets record a grant, so a web request's
        // socket stays silent and allocation-free.
        let site = Site {
            audit_grant: needs_raw_cap,
            ..Site::SOCKET
        };
        // The owner is read under the hook's task guard.
        let euid = Cell::new(Uid::ROOT);
        let hook = |t: &Task, m: &dyn SecurityModule| {
            euid.set(t.cred.euid);
            m.socket_create(&t.cred, domain, stype, protocol)
        };
        if self
            .decide(pid, site, || AuditObject::None, hook, Ok)?
            .is_none()
        {
            let ok = !needs_raw_cap || self.capable(pid, Cap::NetRaw);
            self.stock(pid, site, ok, || AuditObject::None)?;
        }
        let euid = euid.get();
        let sid = self.net.write().alloc(domain, stype, protocol, euid);
        self.install_fd(
            pid,
            Fd {
                object: FdObject::Socket(sid),
                cloexec: false,
            },
        )
    }

    /// `bind(2)`.
    pub fn sys_bind(&self, pid: Pid, fd: i32, addr: Ipv4, port: u16) -> KResult<()> {
        let sid = self.fd_socket(pid, fd)?;
        self.bind_socket(pid, sid, addr, port)
    }

    /// [`Kernel::sys_bind`] on a resolved socket id.
    fn bind_socket(&self, pid: Pid, sid: SockId, addr: Ipv4, port: u16) -> KResult<()> {
        let stype = self.net.read().get(sid)?.stype;
        if port != 0 && port < 1024 && !matches!(stype, SockType::Raw) {
            let tcp = matches!(stype, SockType::Stream);
            let hook = |t: &Task, m: &dyn SecurityModule| {
                let binary = t.binary.as_str();
                m.socket_bind(&t.cred, &BindRequest { port, binary, tcp })
            };
            let object = || AuditObject::Port { port, tcp };
            if self.decide(pid, Site::BIND, object, hook, Ok)?.is_none() {
                let ok = self.capable(pid, Cap::NetBindService);
                self.stock(pid, Site::BIND, ok, object)?;
            }
        }
        self.net.write().bind(sid, addr, port)
    }

    /// `listen(2)`.
    pub fn sys_listen(&self, pid: Pid, fd: i32) -> KResult<()> {
        let sid = self.fd_socket(pid, fd)?;
        self.listen_socket(sid)
    }

    /// [`Kernel::sys_listen`] on a resolved socket id.
    fn listen_socket(&self, sid: SockId) -> KResult<()> {
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
                    net.get(sid)?; // a stale id fails before `alloc`
                    let (listener, owner_uid) = net
                        .port_owner(PortProto::Tcp, port)
                        .filter(|s| s.state == StreamState::Listening)
                        .map(|s| (s.id, s.owner_uid))
                        .ok_or(Errno::ECONNREFUSED)?;
                    let conn = net.alloc(Domain::Inet, SockType::Stream, 0, owner_uid);
                    net.get_mut(conn)?.bound = Some((addr, port));
                    net.make_pair(sid, conn)?;
                    net.get_mut(sid)?.connected = Some((addr, port));
                    net.get_mut(listener)?.backlog.push_back(conn);
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
    /// When no descriptor can be installed the connection stays at the
    /// head of the backlog for a later accept.
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
        let installed = self.task_mut(pid).and_then(|mut t| {
            t.fd_install(Fd {
                object: FdObject::Socket(conn),
                cloexec: false,
            })
        });
        if installed.is_err() {
            let mut net = self.net.write();
            match net.get_mut(sid) {
                Ok(s) if s.state == StreamState::Listening => s.backlog.push_front(conn),
                _ => {
                    let _ = net.close(conn);
                }
            }
        }
        installed
    }

    /// `send(2)` on a connected socket. A stream send looks up its peer
    /// and appends to the peer's buffer under one write guard, so a peer
    /// closed (and its slot reused) by another thread in between cannot
    /// receive the bytes.
    pub fn sys_send(&self, pid: Pid, fd: i32, data: &[u8]) -> KResult<usize> {
        let sid = self.fd_socket(pid, fd)?;
        self.send_socket(pid, sid, data)
    }

    /// [`Kernel::sys_send`] on a resolved socket id.
    fn send_socket(&self, pid: Pid, sid: SockId, data: &[u8]) -> KResult<usize> {
        let mut net = self.net.write();
        let s = net.get(sid)?;
        let (stype, peer, connected, state) = (s.stype, s.peer, s.connected, s.state);
        match stype {
            SockType::Stream => {
                let to = match (peer, connected) {
                    (Some(peer), _) => Some(peer),
                    (None, Some(_)) if state != StreamState::Connected => {
                        return Err(Errno::ENOTCONN)
                    }
                    // Remote echo service answers; other services consume.
                    (None, Some((_, 7))) => Some(sid),
                    (None, Some(_)) => None,
                    (None, None) => return Err(Errno::ENOTCONN),
                };
                if let Some(to) = to {
                    net.get_mut(to)?.rx_bytes.extend(data);
                }
                Ok(data.len())
            }
            SockType::Dgram => {
                drop(net);
                let (addr, port) = connected.ok_or(Errno::ENOTCONN)?;
                self.sendto_socket(pid, sid, addr, port, data)
            }
            SockType::Raw => Err(Errno::EINVAL),
        }
    }

    /// `recv(2)` on a stream socket: appends up to `max` received bytes
    /// to `buf` and returns how many; 0 once the peer has closed and the
    /// buffer is drained.
    pub fn sys_recv(&self, pid: Pid, fd: i32, buf: &mut Vec<u8>, max: usize) -> KResult<usize> {
        let sid = self.fd_socket(pid, fd)?;
        self.recv_socket(sid, buf, max)
    }

    /// [`Kernel::sys_recv`] on a resolved socket id.
    fn recv_socket(&self, sid: SockId, buf: &mut Vec<u8>, max: usize) -> KResult<usize> {
        let mut net = self.net.write();
        let s = net.get_mut(sid)?;
        match s.stype {
            SockType::Stream => {
                if s.rx_bytes.is_empty() {
                    return match s.state {
                        StreamState::Reset => Ok(0),
                        _ => Err(Errno::EAGAIN),
                    };
                }
                let n = max.min(s.rx_bytes.len());
                let (front, back) = s.rx_bytes.as_slices();
                let head = n.min(front.len());
                buf.extend_from_slice(&front[..head]);
                buf.extend_from_slice(&back[..n - head]);
                s.rx_bytes.drain(..n);
                Ok(n)
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
        self.sendto_socket(pid, sid, addr, port, data)
    }

    /// [`Kernel::sys_sendto`] on a resolved socket id.
    fn sendto_socket(
        &self,
        pid: Pid,
        sid: SockId,
        addr: Ipv4,
        port: u16,
        data: &[u8],
    ) -> KResult<usize> {
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
            self.emit_event(pid.0, "send", object, provenance);
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
                // Deliver the reply to every live raw socket of the
                // original sender's uid. One write guard covers scan and
                // delivery.
                let mut net = self.net.write();
                for s in net.live_mut() {
                    if matches!(s.stype, SockType::Raw) && s.owner_uid == pkt.sender_uid {
                        s.rx_packets.push_back(reply.clone());
                    }
                }
            }
            _ => {}
        }
    }

    /// `socketpair(2)` (AF_UNIX, SOCK_STREAM).
    pub fn sys_socketpair(&self, pid: Pid) -> KResult<(i32, i32)> {
        let euid = self.task(pid)?.cred.euid;
        let (a, b) = {
            let mut net = self.net.write();
            let a = net.alloc(Domain::Unix, SockType::Stream, 0, euid);
            let b = net.alloc(Domain::Unix, SockType::Stream, 0, euid);
            net.make_pair(a, b)?;
            (a, b)
        };
        self.install_fd_pair(pid, FdObject::Socket(a), FdObject::Socket(b))
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
                let object = || {
                    AuditObject::Route(format!("{}/{} via {}", route.dest, route.prefix, route.dev))
                };
                // The hook inspects the current table for conflicts
                // (§4.1.2) under the routes read guard.
                let hook = |t: &Task, m: &dyn SecurityModule| {
                    m.ioctl_route_add(&t.cred, &route, &self.routes.read())
                };
                if self.decide(pid, Site::ROUTE, object, hook, Ok)?.is_none() {
                    let ok = self.capable(pid, Cap::NetAdmin);
                    self.stock(pid, Site::ROUTE, ok, object)?;
                }
                route.created_by = self.task(pid)?.cred.ruid;
                self.routes.write().add(route)
            }
            RouteOp::Del { dest, prefix } => {
                let ruid = self.task(pid)?.cred.ruid;
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
                let ok = owner == ruid || self.capable(pid, Cap::NetAdmin);
                let object = || AuditObject::Route(format!("{}/{}", dest, prefix));
                self.stock(pid, Site::ROUTE, ok, object)?;
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

    /// `sys_recv` into a fresh buffer.
    pub(super) fn recv(k: &Kernel, pid: Pid, fd: i32, max: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        k.sys_recv(pid, fd, &mut buf, max).unwrap();
        buf
    }

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
        let got = recv(&k, user, conn, 1024);
        assert_eq!(got, b"GET / HTTP/1.0\r\n");
        k.sys_send(user, conn, b"200 OK").unwrap();
        assert_eq!(recv(&k, user, cli, 1024), b"200 OK");
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
        assert_eq!(recv(&k, user, b, 16), b"ping");
        k.sys_send(user, b, b"pong").unwrap();
        assert_eq!(recv(&k, user, a, 16), b"pong");
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

    /// A local ping's reply reaches the sender's raw socket wherever its
    /// slot lies, also past a closed earlier slot.
    #[test]
    fn local_echo_reply_skips_a_closed_earlier_slot() {
        let (k, root, _) = boot();
        let socket = |stype, protocol| k.sys_socket(root, Domain::Inet, stype, protocol).unwrap();
        let first = socket(SockType::Dgram, 0);
        socket(SockType::Dgram, 0);
        let raw = socket(SockType::Raw, 1);
        assert_eq!(k.fd_socket(root, raw).unwrap().slot, 2);
        k.sys_close(root, first).unwrap();
        let pkt = Packet::echo_request(Ipv4::LOOPBACK, Ipv4::LOOPBACK, 9, 1, Uid::ROOT);
        k.sys_send_packet(root, raw, pkt).unwrap();
        let reply = k.sys_recv_packet(root, raw).unwrap();
        assert_eq!(reply.l4, L4::Icmp(IcmpKind::EchoReply { id: 9, seq: 1 }));
    }

    /// An id resolved from a descriptor before another thread closes it
    /// and a new socket takes the slot names no socket: `send`, `recv`,
    /// `bind` and `listen` on it answer `EBADF` and leave the slot's new
    /// socket as it was.
    #[test]
    fn a_stale_socket_id_is_ebadf_once_its_slot_is_reused() {
        let (k, _, user) = boot();
        let fd = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        let stale = k.fd_socket(user, fd).unwrap();
        k.sys_close(user, fd).unwrap();
        let other = k
            .sys_socket(user, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        let fresh = k.fd_socket(user, other).unwrap();
        assert_eq!(fresh.slot, stale.slot, "the closed slot is reused");
        k.net
            .write()
            .get_mut(fresh)
            .unwrap()
            .rx_bytes
            .extend(b"mine");

        let mut buf = Vec::new();
        assert_eq!(k.send_socket(user, stale, b"x"), Err(Errno::EBADF));
        assert_eq!(k.recv_socket(stale, &mut buf, 16), Err(Errno::EBADF));
        assert_eq!(
            k.bind_socket(user, stale, Ipv4::ANY, 9000),
            Err(Errno::EBADF)
        );
        assert_eq!(k.listen_socket(stale), Err(Errno::EBADF));
        assert!(buf.is_empty());

        let net = k.net.read();
        let s = net.get(fresh).unwrap();
        assert_eq!(s.rx_bytes, b"mine");
        assert_eq!((s.bound, s.state), (None, StreamState::Idle));
        assert!(net.port_owner(PortProto::Tcp, 9000).is_none());
    }
}

#[cfg(test)]
mod edge_tests {
    use super::tests::recv;
    use super::*;
    use crate::cred::{Credentials, Gid, Uid};
    use crate::net::SimNet;

    fn boot() -> (Kernel, Pid) {
        let k = Kernel::new(SimNet::standard_topology());
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        (k, user)
    }

    /// With the fd table full, every call that would install a descriptor
    /// fails with `EMFILE` and leaves nothing behind: no socket, no pipe,
    /// no half-installed pipe end, and the pending connection stays
    /// queued for the next accept.
    #[test]
    fn emfile_releases_what_the_call_allocated() {
        use crate::task::MAX_FDS;
        let (k, u) = boot();
        let lfd = k.sys_socket(u, Domain::Inet, SockType::Stream, 0).unwrap();
        k.sys_bind(u, lfd, Ipv4::ANY, 8080).unwrap();
        k.sys_listen(u, lfd).unwrap();
        let cli = k.sys_socket(u, Domain::Inet, SockType::Stream, 0).unwrap();
        k.sys_connect(u, cli, Ipv4::LOOPBACK, 8080).unwrap();
        let listener = k.fd_socket(u, lfd).unwrap();
        let backlog = |k: &Kernel| k.net.read().get(listener).unwrap().backlog.len();
        assert_eq!(backlog(&k), 1);

        let mut last = cli;
        for _ in 2..MAX_FDS {
            last = k.sys_socket(u, Domain::Unix, SockType::Dgram, 0).unwrap();
        }
        let sockets = k.net.read().live_count();
        let pipes = k.pipes.live_count();
        let full = |k: &Kernel| {
            assert_eq!(
                k.sys_socket(u, Domain::Inet, SockType::Stream, 0),
                Err(Errno::EMFILE)
            );
            assert_eq!(k.sys_socketpair(u), Err(Errno::EMFILE));
            assert_eq!(k.sys_pipe(u), Err(Errno::EMFILE));
            assert_eq!(k.net.read().live_count(), sockets);
            assert_eq!(k.pipes.live_count(), pipes);
        };
        full(&k);
        assert_eq!(k.sys_accept(u, lfd), Err(Errno::EMFILE));
        assert_eq!(backlog(&k), 1, "the connection stays queued");
        assert_eq!(k.net.read().live_count(), sockets);

        // One free slot: a pair still does not fit, and its first end
        // does not stay installed.
        k.sys_close(u, last).unwrap();
        let sockets = sockets - 1;
        let freed = |k: &Kernel| k.task(u).unwrap().fd(last).is_err();
        assert_eq!(k.sys_pipe(u), Err(Errno::EMFILE));
        assert_eq!(k.sys_socketpair(u), Err(Errno::EMFILE));
        assert!(freed(&k));
        assert_eq!(k.net.read().live_count(), sockets);
        assert_eq!(k.pipes.live_count(), pipes);

        // The queued connection is accepted into that slot, intact.
        let conn = k.sys_accept(u, lfd).unwrap();
        assert_eq!(conn, last);
        assert_eq!(backlog(&k), 0);
        k.sys_send(u, cli, b"still here").unwrap();
        assert_eq!(recv(&k, u, conn, 64), b"still here");
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
        assert_eq!(recv(&k, u, b, 16), b"bye");
        // ...then EOF (empty read) rather than an error.
        assert_eq!(recv(&k, u, b, 16), b"");
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
