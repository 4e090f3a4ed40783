//! Sockets and the port table.

use super::packet::{Ipv4, Packet};
use crate::cred::Uid;
use crate::error::{Errno, KResult};
use std::collections::{BTreeMap, VecDeque};

/// A socket identity: a slot in the socket arena plus the generation of
/// the socket in it. A closed socket's slot is reused under the next
/// generation, so an id resolved from a descriptor before a concurrent
/// close names no socket afterwards: the table answers `EBADF` for it
/// instead of handing out the slot's new socket.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SockId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

/// Address/protocol family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Domain {
    /// AF_INET.
    Inet,
    /// AF_UNIX.
    Unix,
    /// AF_PACKET — link-layer access; creation requires CAP_NET_RAW on
    /// stock Linux.
    Packet,
}

/// Socket type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SockType {
    /// SOCK_STREAM.
    Stream,
    /// SOCK_DGRAM.
    Dgram,
    /// SOCK_RAW — caller builds headers; creation requires CAP_NET_RAW on
    /// stock Linux.
    Raw,
}

/// Port-table protocol key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum PortProto {
    /// TCP port space.
    Tcp,
    /// UDP port space.
    Udp,
}

/// Connection state of a stream socket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamState {
    /// Fresh socket.
    Idle,
    /// `listen()` has been called.
    Listening,
    /// Connected to a peer.
    Connected,
    /// Peer has closed.
    Reset,
}

/// A simulated socket.
#[derive(Clone, Debug)]
pub struct Socket {
    /// Arena index.
    pub id: SockId,
    /// Address family.
    pub domain: Domain,
    /// Socket type.
    pub stype: SockType,
    /// IP protocol number for raw sockets (1 = ICMP), 0 otherwise.
    pub protocol: u8,
    /// Uid at creation time (the spoof analysis compares it with a
    /// packet's sender).
    pub owner_uid: Uid,
    /// Local address, once bound.
    pub bound: Option<(Ipv4, u16)>,
    /// Remote address, once connected.
    pub connected: Option<(Ipv4, u16)>,
    /// Local peer socket for stream/unix pairs.
    pub peer: Option<SockId>,
    /// Stream connection state.
    pub state: StreamState,
    /// Pending connections for a listening socket.
    pub backlog: VecDeque<SockId>,
    /// Received packets (dgram/raw).
    pub rx_packets: VecDeque<Packet>,
    /// Received bytes (stream).
    pub rx_bytes: VecDeque<u8>,
    /// Close-on-exec flag of the owning fd.
    pub cloexec: bool,
}

/// The largest receive-buffer capacity, in bytes, a closed socket hands
/// on to the next socket allocated in its slot; a larger buffer is freed.
pub const RX_KEEP_CAPACITY: usize = 64 * 1024;

/// The socket arena plus port bindings.
#[derive(Debug, Default)]
pub struct NetStack {
    sockets: Vec<Option<Socket>>,
    /// Closed slots, each with the id its next socket gets (the next
    /// generation) and the emptied receive buffer of its last socket, so
    /// that socket starts with the buffer's capacity.
    free_ids: Vec<(SockId, VecDeque<u8>)>,
    ports: BTreeMap<(PortProto, u16), SockId>,
    next_ephemeral: u16,
}

impl NetStack {
    /// Creates an empty stack.
    pub fn new() -> NetStack {
        NetStack {
            sockets: Vec::new(),
            free_ids: Vec::new(),
            ports: BTreeMap::new(),
            next_ephemeral: 32768,
        }
    }

    /// Allocates a socket.
    pub fn alloc(
        &mut self,
        domain: Domain,
        stype: SockType,
        protocol: u8,
        owner_uid: Uid,
    ) -> SockId {
        // Closed slots are recycled under a new generation, so an id of
        // the slot's old socket stays dead. The slot's receive buffer
        // comes back empty but keeps its capacity.
        let (id, rx_bytes) = match self.free_ids.pop() {
            Some(free) => free,
            None => {
                let id = SockId {
                    slot: self.sockets.len() as u32,
                    gen: 0,
                };
                self.sockets.push(None);
                (id, VecDeque::new())
            }
        };
        self.sockets[id.slot as usize] = Some(Socket {
            id,
            domain,
            stype,
            protocol,
            owner_uid,
            bound: None,
            connected: None,
            peer: None,
            state: StreamState::Idle,
            backlog: VecDeque::new(),
            rx_packets: VecDeque::new(),
            rx_bytes,
            cloexec: false,
        });
        id
    }

    /// Immutable socket access; `EBADF` for a closed socket's id.
    pub fn get(&self, id: SockId) -> KResult<&Socket> {
        self.sockets
            .get(id.slot as usize)
            .and_then(|s| s.as_ref())
            .filter(|s| s.id == id)
            .ok_or(Errno::EBADF)
    }

    /// Mutable socket access; `EBADF` for a closed socket's id.
    pub fn get_mut(&mut self, id: SockId) -> KResult<&mut Socket> {
        self.sockets
            .get_mut(id.slot as usize)
            .and_then(|s| s.as_mut())
            .filter(|s| s.id == id)
            .ok_or(Errno::EBADF)
    }

    /// Every live socket, in slot order.
    pub(crate) fn live_mut(&mut self) -> impl Iterator<Item = &mut Socket> {
        self.sockets.iter_mut().flatten()
    }

    /// Binds a socket to a local address, claiming the port in the
    /// per-protocol port space. Policy checks happen in the syscall layer.
    pub fn bind(&mut self, id: SockId, addr: Ipv4, port: u16) -> KResult<()> {
        let proto = match self.get(id)?.stype {
            SockType::Stream => PortProto::Tcp,
            SockType::Dgram => PortProto::Udp,
            SockType::Raw => {
                // Raw sockets don't occupy the port space.
                self.get_mut(id)?.bound = Some((addr, port));
                return Ok(());
            }
        };
        if port != 0 && self.ports.contains_key(&(proto, port)) {
            return Err(Errno::EADDRINUSE);
        }
        let port = if port == 0 {
            self.ephemeral_port(proto)
        } else {
            port
        };
        self.ports.insert((proto, port), id);
        self.get_mut(id)?.bound = Some((addr, port));
        Ok(())
    }

    /// Finds a free ephemeral port.
    pub fn ephemeral_port(&mut self, proto: PortProto) -> u16 {
        loop {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX { 32768 } else { p + 1 };
            if !self.ports.contains_key(&(proto, p)) {
                return p;
            }
        }
    }

    /// Returns the socket bound to (proto, port), if any.
    pub fn port_owner(&self, proto: PortProto, port: u16) -> Option<&Socket> {
        self.ports
            .get(&(proto, port))
            .and_then(|id| self.get(*id).ok())
    }

    /// Destroys a socket, releasing its port and resetting its peer.
    pub fn close(&mut self, id: SockId) -> KResult<()> {
        let (bound, stype, peer) = {
            let s = self.get(id)?;
            (s.bound, s.stype, s.peer)
        };
        let proto = match stype {
            SockType::Stream => Some(PortProto::Tcp),
            SockType::Dgram => Some(PortProto::Udp),
            SockType::Raw => None,
        };
        if let (Some((_, port)), Some(proto)) = (bound, proto) {
            if self.ports.get(&(proto, port)) == Some(&id) {
                self.ports.remove(&(proto, port));
            }
        }
        if let Some(peer) = peer {
            if let Ok(p) = self.get_mut(peer) {
                p.peer = None;
                p.state = StreamState::Reset;
            }
        }
        let mut rx = self.sockets[id.slot as usize]
            .take()
            .map(|s| s.rx_bytes)
            .unwrap_or_default();
        if rx.capacity() > RX_KEEP_CAPACITY {
            rx = VecDeque::new();
        }
        rx.clear();
        let next = SockId {
            slot: id.slot,
            gen: id.gen.wrapping_add(1),
        };
        self.free_ids.push((next, rx));
        Ok(())
    }

    /// Wires two sockets as connected peers (loopback streams, unix pairs).
    pub fn make_pair(&mut self, a: SockId, b: SockId) -> KResult<()> {
        self.get_mut(a)?.peer = Some(b);
        self.get_mut(a)?.state = StreamState::Connected;
        self.get_mut(b)?.peer = Some(a);
        self.get_mut(b)?.state = StreamState::Connected;
        Ok(())
    }

    /// Number of live sockets.
    pub fn live_count(&self) -> usize {
        self.sockets.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_with_socket(stype: SockType) -> (NetStack, SockId) {
        let mut ns = NetStack::new();
        let id = ns.alloc(Domain::Inet, stype, 0, Uid(1000));
        (ns, id)
    }

    #[test]
    fn bind_claims_port() {
        let (mut ns, id) = stack_with_socket(SockType::Stream);
        ns.bind(id, Ipv4::ANY, 8080).unwrap();
        assert_eq!(ns.port_owner(PortProto::Tcp, 8080).unwrap().id, id);
        assert!(ns.port_owner(PortProto::Udp, 8080).is_none());
    }

    #[test]
    fn double_bind_is_eaddrinuse() {
        let (mut ns, a) = stack_with_socket(SockType::Stream);
        let b = ns.alloc(Domain::Inet, SockType::Stream, 0, Uid(1001));
        ns.bind(a, Ipv4::ANY, 80).unwrap();
        assert_eq!(ns.bind(b, Ipv4::ANY, 80).unwrap_err(), Errno::EADDRINUSE);
    }

    #[test]
    fn ephemeral_bind() {
        let (mut ns, id) = stack_with_socket(SockType::Dgram);
        ns.bind(id, Ipv4::ANY, 0).unwrap();
        let port = ns.get(id).unwrap().bound.unwrap().1;
        assert!(port >= 32768);
        assert_eq!(ns.port_owner(PortProto::Udp, port).unwrap().id, id);
    }

    #[test]
    fn raw_sockets_skip_port_table() {
        let (mut ns, id) = stack_with_socket(SockType::Raw);
        ns.bind(id, Ipv4::ANY, 0).unwrap();
        assert_eq!(ns.live_count(), 1);
    }

    #[test]
    fn close_releases_port_and_resets_peer() {
        let (mut ns, a) = stack_with_socket(SockType::Stream);
        let b = ns.alloc(Domain::Inet, SockType::Stream, 0, Uid(1001));
        ns.bind(a, Ipv4::ANY, 81).unwrap();
        ns.make_pair(a, b).unwrap();
        ns.close(a).unwrap();
        assert!(ns.port_owner(PortProto::Tcp, 81).is_none());
        assert_eq!(ns.get(b).unwrap().state, StreamState::Reset);
        assert_eq!(ns.get(a).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn recycled_slot_keeps_rx_capacity_but_no_bytes_up_to_the_bound() {
        let (mut ns, a) = stack_with_socket(SockType::Stream);
        ns.get_mut(a).unwrap().rx_bytes.extend(b"stale request");
        let cap = ns.get(a).unwrap().rx_bytes.capacity();
        ns.close(a).unwrap();
        let b = ns.alloc(Domain::Unix, SockType::Stream, 0, Uid(1001));
        assert_eq!(b.slot, a.slot, "the closed slot is reused");
        assert_ne!(b, a, "under a new generation");
        assert_eq!(ns.get(a).unwrap_err(), Errno::EBADF);
        let s = ns.get(b).unwrap();
        assert!(s.rx_bytes.is_empty(), "no byte survives the close");
        assert_eq!(s.rx_bytes.capacity(), cap);

        // A buffer past the bound is freed, not handed on.
        ns.get_mut(b)
            .unwrap()
            .rx_bytes
            .extend(std::iter::repeat_n(0u8, RX_KEEP_CAPACITY + 1));
        ns.close(b).unwrap();
        let c = ns.alloc(Domain::Inet, SockType::Stream, 0, Uid(1000));
        assert_eq!(ns.get(c).unwrap().rx_bytes.capacity(), 0);
    }
}
