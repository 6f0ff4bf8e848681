//! The per-rank communicator handle.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::sync::{Arc, Barrier};

type Packet = Box<dyn Any + Send>;

/// Shared state behind all ranks of one world.
pub(crate) struct Shared {
    pub(crate) size: usize,
    pub(crate) barrier: Barrier,
    /// `mailboxes[dst][src]` receives packets sent from `src` to `dst`.
    pub(crate) senders: Vec<Vec<Sender<Packet>>>,
    pub(crate) receivers: Vec<Vec<Receiver<Packet>>>,
}

impl Shared {
    pub(crate) fn new(size: usize) -> Shared {
        let mut senders: Vec<Vec<Sender<Packet>>> = (0..size).map(|_| Vec::new()).collect();
        let mut receivers: Vec<Vec<Receiver<Packet>>> = (0..size).map(|_| Vec::new()).collect();
        for dst in 0..size {
            for _src in 0..size {
                let (tx, rx) = unbounded();
                senders[dst].push(tx);
                receivers[dst].push(rx);
            }
        }
        Shared {
            size,
            barrier: Barrier::new(size),
            senders,
            receivers,
        }
    }
}

/// A rank's communicator: the MPI-ish API surface used by the mini-apps.
///
/// All collectives must be called by **every** rank of the world in the
/// same order, as in MPI; deviating deadlocks (also as in MPI).
#[derive(Clone)]
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
}

impl Comm {
    pub(crate) fn new(rank: usize, shared: Arc<Shared>) -> Comm {
        Comm { rank, shared }
    }

    /// This rank's index in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Block until every rank reaches the barrier.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Send a typed message to rank `to` (asynchronous, unbounded buffer).
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    pub fn send<T: Any + Send>(&self, to: usize, value: T) {
        assert!(to < self.size(), "send to rank {to} out of range");
        self.shared.senders[to][self.rank]
            .send(Box::new(value))
            .expect("receiver alive for the lifetime of the world");
    }

    /// Receive the next message sent by rank `from`, blocking.
    ///
    /// # Panics
    /// Panics if `from` is out of range or the received message has a
    /// different type than requested (a protocol error in the app).
    pub fn recv<T: Any + Send>(&self, from: usize) -> T {
        assert!(from < self.size(), "recv from rank {from} out of range");
        let pkt = self.shared.receivers[self.rank][from]
            .recv()
            .expect("sender alive for the lifetime of the world");
        *pkt.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving from rank {from} on rank {}",
                self.rank
            )
        })
    }

    /// Combined send-then-receive with a partner rank (deadlock-free for
    /// the pairwise exchanges the apps' halo swaps use).
    pub fn sendrecv<T: Any + Send>(&self, partner: usize, value: T) -> T {
        self.send(partner, value);
        self.recv(partner)
    }

    /// Broadcast `value` from `root` to every rank; every rank returns the
    /// broadcast value. Ranks other than root pass their own (ignored)
    /// `value`... no — ranks other than root pass `None`.
    pub fn broadcast<T: Any + Send + Clone>(&self, root: usize, value: Option<T>) -> T {
        if self.rank == root {
            let v = value.expect("root must supply the broadcast value");
            for r in 0..self.size() {
                if r != root {
                    self.send(r, v.clone());
                }
            }
            v
        } else {
            self.recv(root)
        }
    }

    /// Gather every rank's `value` on `root`; returns `Some(values)` (in
    /// rank order) on root and `None` elsewhere.
    pub fn gather<T: Any + Send>(&self, root: usize, value: T) -> Option<Vec<T>> {
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for r in 0..self.size() {
                if r != root {
                    out[r] = Some(self.recv(r));
                }
            }
            Some(out.into_iter().map(Option::unwrap).collect())
        } else {
            self.send(root, value);
            None
        }
    }

    /// Gather every rank's `value` on every rank (in rank order).
    pub fn allgather<T: Any + Send + Clone>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered)
    }

    /// Reduce with a binary operation onto `root`; `Some(result)` on root.
    pub fn reduce<T: Any + Send, F: Fn(T, T) -> T>(
        &self,
        root: usize,
        value: T,
        op: F,
    ) -> Option<T> {
        self.gather(root, value)
            .map(|vals| vals.into_iter().reduce(op).expect("size >= 1"))
    }

    /// Allreduce with a binary operation; every rank returns the result.
    pub fn allreduce<T: Any + Send + Clone, F: Fn(T, T) -> T>(&self, value: T, op: F) -> T {
        let reduced = self.reduce(0, value, op);
        self.broadcast(0, reduced)
    }

    /// Allreduce summing `f64`s (the most common collective in the apps).
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Allreduce summing `u64`s.
    pub fn allreduce_sum_u64(&self, value: u64) -> u64 {
        self.allreduce(value, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use crate::world::World;

    #[test]
    fn rank_and_size() {
        let out = World::run(3, |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn send_recv_ring() {
        let out = World::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, c.rank() as u64);
            c.recv::<u64>(prev)
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn sendrecv_pairwise_exchange() {
        let out = World::run(2, |c| {
            let partner = 1 - c.rank();
            c.sendrecv(partner, c.rank() * 100)
        });
        assert_eq!(out, vec![100, 0]);
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = World::run(4, |c| {
            let v = if c.rank() == 2 {
                Some("hello".to_string())
            } else {
                None
            };
            c.broadcast(2, v)
        });
        assert!(out.iter().all(|s| s == "hello"));
    }

    #[test]
    fn gather_in_rank_order() {
        let out = World::run(4, |c| c.gather(1, c.rank() as u32));
        assert_eq!(out[0], None);
        assert_eq!(out[1], Some(vec![0, 1, 2, 3]));
        assert_eq!(out[2], None);
    }

    #[test]
    fn allgather_everywhere() {
        let out = World::run(3, |c| c.allgather(c.rank() as u8));
        assert!(out.iter().all(|v| v == &vec![0, 1, 2]));
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = World::run(5, |c| {
            (
                c.allreduce_sum(c.rank() as f64),
                c.allreduce(c.rank() as f64, f64::max),
            )
        });
        assert!(out.iter().all(|&(s, m)| s == 10.0 && m == 4.0));
    }

    #[test]
    fn allreduce_sum_u64() {
        let out = World::run(4, |c| c.allreduce_sum_u64(1 << c.rank()));
        assert!(out.iter().all(|&v| v == 0b1111));
    }

    #[test]
    fn reduce_with_custom_op() {
        let out = World::run(3, |c| c.reduce(0, c.rank() as i64 + 1, |a, b| a * b));
        assert_eq!(out[0], Some(6));
        assert_eq!(out[1], None);
    }

    #[test]
    fn barriers_allow_repeated_phases() {
        let out = World::run(4, |c| {
            let mut acc = 0.0;
            for step in 0..10 {
                c.barrier();
                acc += c.allreduce_sum((c.rank() + step) as f64);
            }
            acc
        });
        let expected: f64 = (0..10).map(|s| (s + 1 + s + 2 + s + 3 + s) as f64).sum();
        assert!(out.iter().all(|&v| v == expected));
    }

    #[test]
    fn consecutive_typed_messages_keep_order() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1u32);
                c.send(1, 2u32);
                c.send(1, "three".to_string());
                0
            } else {
                let a = c.recv::<u32>(0);
                let b = c.recv::<u32>(0);
                let s = c.recv::<String>(0);
                assert_eq!((a, b, s.as_str()), (1, 2, "three"));
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::run(1, |c| {
            c.barrier();
            c.allreduce_sum(7.0)
        });
        assert_eq!(out, vec![7.0]);
    }
}
