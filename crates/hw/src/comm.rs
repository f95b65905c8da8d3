//! In-process message-passing group standing in for MPI.
//!
//! The FTI library and the Heat2D solver are MPI programs in the paper
//! (Listing 1 opens with `MPI_Init`). This module provides the subset they
//! need — ranked endpoints with point-to-point sends, barriers, broadcast,
//! gather and sum-allreduce — implemented over crossbeam channels so a
//! "cluster" runs as threads inside one test process.
//!
//! Channels are FIFO per (sender, receiver) pair, matching MPI's
//! non-overtaking guarantee for same-source messages.
//!
//! Payloads travel as [`Payload`] (`Arc<[u8]>`): a send converts the
//! caller's buffer into shared ownership once, and every further hop —
//! each peer of a broadcast, each slot of a gather — moves a refcounted
//! pointer instead of cloning the bytes. Scheduling code that only needs
//! transfer *costs* should not materialize payloads at all: the
//! [`LinkModel`] prices a transfer from its size alone.

use std::sync::{Arc, Barrier};

use crossbeam::channel::{unbounded, Receiver, Sender};
use legato_core::units::{Bytes, BytesPerSec, Seconds};

use crate::error::HwError;
use crate::recs::Networks;

/// A message buffer with shared ownership: cloned per hop by pointer,
/// never by content.
pub type Payload = Arc<[u8]>;

/// A communicator group; construct endpoints with [`Group::endpoints`].
#[derive(Debug)]
pub struct Group {
    size: usize,
}

impl Group {
    /// Create a group of `size` ranks and return all endpoints.
    ///
    /// Hand each endpoint to its own thread, as in MPI's one-process-per-
    /// rank model.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn endpoints(size: usize) -> Vec<Endpoint> {
        assert!(size > 0, "communicator group must have at least one rank");
        let mut txs: Vec<Vec<Option<Sender<Payload>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        let mut rxs: Vec<Vec<Option<Receiver<Payload>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        for from in 0..size {
            for to in 0..size {
                let (tx, rx) = unbounded();
                txs[from][to] = Some(tx);
                rxs[to][from] = Some(rx);
            }
        }
        let barrier = Arc::new(Barrier::new(size));
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(rank, (tx_row, rx_row))| Endpoint {
                rank,
                size,
                senders: tx_row.into_iter().map(|t| t.expect("filled")).collect(),
                receivers: rx_row.into_iter().map(|r| r.expect("filled")).collect(),
                barrier: Arc::clone(&barrier),
            })
            .collect()
    }

    /// Number of ranks.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }
}

/// One rank's endpoint in a [`Group`].
#[derive(Debug)]
pub struct Endpoint {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Payload>>,
    receivers: Vec<Receiver<Payload>>,
    barrier: Arc<Barrier>,
}

impl Endpoint {
    /// This endpoint's rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send a payload to `to`. Accepts anything convertible into a
    /// [`Payload`] (`Vec<u8>` converts with one move of the bytes; an
    /// existing `Payload` is forwarded without copying).
    ///
    /// # Errors
    ///
    /// [`HwError::Comm`] if `to` is out of range or the peer endpoint was
    /// dropped.
    pub fn send(&self, to: usize, payload: impl Into<Payload>) -> Result<(), HwError> {
        let tx = self
            .senders
            .get(to)
            .ok_or_else(|| HwError::Comm(format!("rank {to} out of range 0..{}", self.size)))?;
        tx.send(payload.into())
            .map_err(|_| HwError::Comm(format!("rank {to} has hung up")))
    }

    /// Receive the next payload from `from` (blocking).
    ///
    /// # Errors
    ///
    /// [`HwError::Comm`] if `from` is out of range or the peer endpoint was
    /// dropped without sending.
    pub fn recv(&self, from: usize) -> Result<Payload, HwError> {
        let rx = self
            .receivers
            .get(from)
            .ok_or_else(|| HwError::Comm(format!("rank {from} out of range 0..{}", self.size)))?;
        rx.recv()
            .map_err(|_| HwError::Comm(format!("rank {from} has hung up")))
    }

    /// Block until every rank reaches the barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Sum-allreduce a scalar across the group.
    ///
    /// ```
    /// use legato_hw::comm::Group;
    ///
    /// let ranks: Vec<_> = Group::endpoints(3)
    ///     .into_iter()
    ///     .map(|ep| std::thread::spawn(move || ep.allreduce_sum(ep.rank() as f64)))
    ///     .collect();
    /// for rank in ranks {
    ///     assert_eq!(rank.join().unwrap()?, 3.0);
    /// }
    /// # Ok::<(), legato_hw::HwError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`HwError::Comm`] if any peer hangs up mid-collective.
    pub fn allreduce_sum(&self, value: f64) -> Result<f64, HwError> {
        if self.size == 1 {
            return Ok(value);
        }
        if self.rank == 0 {
            let mut acc = value;
            for from in 1..self.size {
                let bytes = self.recv(from)?;
                acc += decode_f64(&bytes)?;
            }
            let out = Payload::from(acc.to_le_bytes().to_vec());
            for to in 1..self.size {
                self.send(to, Payload::clone(&out))?;
            }
            Ok(acc)
        } else {
            self.send(0, value.to_le_bytes().to_vec())?;
            decode_f64(&self.recv(0)?)
        }
    }

    /// Broadcast `data` from `root` to every rank; returns the payload on
    /// all ranks.
    ///
    /// The bytes are converted into a shared [`Payload`] once on the
    /// root; each peer then receives a refcounted handle to the same
    /// buffer — no per-hop byte clone.
    ///
    /// ```
    /// use legato_hw::comm::Group;
    ///
    /// let ranks: Vec<_> = Group::endpoints(3)
    ///     .into_iter()
    ///     .map(|ep| std::thread::spawn(move || ep.broadcast(1, vec![ep.rank() as u8])))
    ///     .collect();
    /// for rank in ranks {
    ///     assert_eq!(&rank.join().unwrap()?[..], &[1]);
    /// }
    /// # Ok::<(), legato_hw::HwError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`HwError::Comm`] on hang-up or out-of-range root.
    pub fn broadcast(&self, root: usize, data: impl Into<Payload>) -> Result<Payload, HwError> {
        if root >= self.size {
            return Err(HwError::Comm(format!(
                "root {root} out of range 0..{}",
                self.size
            )));
        }
        let data = data.into();
        if self.rank == root {
            for to in 0..self.size {
                if to != root {
                    self.send(to, Payload::clone(&data))?;
                }
            }
            Ok(data)
        } else {
            self.recv(root)
        }
    }

    /// Gather every rank's payload at `root`; returns `Some(payloads)` (in
    /// rank order) on the root and `None` elsewhere. Payload handles are
    /// moved, never deep-copied.
    ///
    /// # Errors
    ///
    /// [`HwError::Comm`] on hang-up or out-of-range root.
    pub fn gather(
        &self,
        root: usize,
        data: impl Into<Payload>,
    ) -> Result<Option<Vec<Payload>>, HwError> {
        if root >= self.size {
            return Err(HwError::Comm(format!(
                "root {root} out of range 0..{}",
                self.size
            )));
        }
        let data = data.into();
        if self.rank == root {
            let mut all = vec![Payload::from(&[][..]); self.size];
            all[root] = data;
            for (from, slot) in all.iter_mut().enumerate() {
                if from != root {
                    *slot = self.recv(from)?;
                }
            }
            Ok(Some(all))
        } else {
            self.send(root, data)?;
            Ok(None)
        }
    }
}

/// Size-only transfer cost model for one interconnect hop.
///
/// The scheduler's topology layer prices a producer→consumer region
/// movement as `latency + bytes / bandwidth` without ever materializing
/// a payload — evaluating a cost is pure arithmetic on `Copy` values
/// (regression-pinned allocation-free in `tests/comm_cost_alloc.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Sustained link bandwidth.
    pub bandwidth: BytesPerSec,
    /// Per-transfer setup latency (paid once per crossing, not per byte).
    pub latency: Seconds,
}

impl LinkModel {
    /// A link with the given bandwidth and per-transfer latency.
    #[must_use]
    pub const fn new(bandwidth: BytesPerSec, latency: Seconds) -> Self {
        LinkModel { bandwidth, latency }
    }

    /// The chassis *compute* network (up to 40 GbE) of `networks`.
    #[must_use]
    pub fn compute_network(networks: &Networks, latency: Seconds) -> Self {
        LinkModel::new(networks.compute, latency)
    }

    /// The chassis high-speed *fabric* (PCIe / serial) of `networks`.
    #[must_use]
    pub fn fabric(networks: &Networks, latency: Seconds) -> Self {
        LinkModel::new(networks.fabric, latency)
    }

    /// Time to move `bytes` across the link. Zero-sized transfers are
    /// free: nothing moves, so no latency is charged either.
    #[must_use]
    pub fn transfer_time(&self, bytes: Bytes) -> Seconds {
        if bytes == Bytes::ZERO {
            return Seconds::ZERO;
        }
        self.latency + bytes.time_at(self.bandwidth)
    }
}

fn decode_f64(bytes: &[u8]) -> Result<f64, HwError> {
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| HwError::Comm("malformed f64 payload".into()))?;
    Ok(f64::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_group<F>(size: usize, f: F)
    where
        F: Fn(Endpoint) + Send + Sync + Clone + 'static,
    {
        let endpoints = Group::endpoints(size);
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let f = f.clone();
                thread::spawn(move || f(ep))
            })
            .collect();
        for h in handles {
            h.join().expect("rank panicked");
        }
    }

    #[test]
    fn point_to_point_ring() {
        run_group(4, |ep| {
            let next = (ep.rank() + 1) % ep.size();
            let prev = (ep.rank() + ep.size() - 1) % ep.size();
            ep.send(next, vec![ep.rank() as u8]).unwrap();
            let got = ep.recv(prev).unwrap();
            assert_eq!(&got[..], &[prev as u8]);
        });
    }

    #[test]
    fn allreduce_sums_ranks() {
        run_group(5, |ep| {
            let total = ep.allreduce_sum(ep.rank() as f64).unwrap();
            assert_eq!(total, 10.0); // 0+1+2+3+4
        });
    }

    #[test]
    fn allreduce_single_rank() {
        run_group(1, |ep| {
            assert_eq!(ep.allreduce_sum(42.0).unwrap(), 42.0);
        });
    }

    #[test]
    fn broadcast_from_root() {
        run_group(3, |ep| {
            let data = if ep.rank() == 1 {
                vec![7, 7, 7]
            } else {
                vec![]
            };
            let got = ep.broadcast(1, data).unwrap();
            assert_eq!(&got[..], &[7, 7, 7]);
        });
    }

    #[test]
    fn gather_collects_in_rank_order() {
        run_group(4, |ep| {
            let out = ep.gather(0, vec![ep.rank() as u8; 2]).unwrap();
            if ep.rank() == 0 {
                let all = out.unwrap();
                for (r, payload) in all.iter().enumerate() {
                    assert_eq!(&payload[..], &[r as u8; 2]);
                }
            } else {
                assert!(out.is_none());
            }
        });
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let endpoints = Group::endpoints(4);
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    ep.barrier();
                    // After the barrier everyone must see all increments.
                    assert_eq!(counter.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn out_of_range_rank_errors() {
        let mut eps = Group::endpoints(2);
        let ep = eps.remove(0);
        assert!(matches!(ep.send(5, vec![]), Err(HwError::Comm(_))));
        assert!(matches!(ep.recv(9), Err(HwError::Comm(_))));
        assert!(matches!(ep.broadcast(7, vec![]), Err(HwError::Comm(_))));
    }

    #[test]
    fn fifo_per_pair() {
        run_group(2, |ep| {
            if ep.rank() == 0 {
                for i in 0..10u8 {
                    ep.send(1, vec![i]).unwrap();
                }
            } else {
                for i in 0..10u8 {
                    assert_eq!(&ep.recv(0).unwrap()[..], &[i]);
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_size_group_panics() {
        let _ = Group::endpoints(0);
    }

    #[test]
    fn hops_share_one_buffer() {
        // Unbounded channels let a single thread play both ranks: the
        // payload the peer receives is the *same* allocation the sender
        // converted, not a per-hop byte clone.
        let mut eps = Group::endpoints(2);
        let ep1 = eps.remove(1);
        let ep0 = eps.remove(0);
        let sent = Payload::from(vec![9u8; 128]);
        let returned = ep0.broadcast(0, Payload::clone(&sent)).unwrap();
        let received = ep1.broadcast(0, Payload::from(&[][..])).unwrap();
        assert!(Arc::ptr_eq(&sent, &returned));
        assert!(Arc::ptr_eq(&sent, &received));
    }

    #[test]
    fn link_model_prices_by_size() {
        let link = LinkModel::compute_network(&Networks::default(), Seconds(25e-6));
        assert_eq!(link.transfer_time(Bytes::ZERO), Seconds::ZERO);
        let small = link.transfer_time(Bytes::kib(4));
        let big = link.transfer_time(Bytes::mib(64));
        assert!(small > Seconds::ZERO && big > small);
        // Latency dominates tiny transfers; bandwidth dominates bulk.
        assert!((small.0 - 25e-6).abs() / small.0 < 0.1);
        assert!((big.0 - Bytes::mib(64).as_f64() / 5.0e9).abs() / big.0 < 0.1);
    }

    #[test]
    fn fabric_beats_compute_network_on_bulk() {
        let n = Networks::default();
        let lat = Seconds(5e-6);
        let bulk = Bytes::mib(256);
        assert!(
            LinkModel::fabric(&n, lat).transfer_time(bulk)
                < LinkModel::compute_network(&n, lat).transfer_time(bulk)
        );
    }
}
