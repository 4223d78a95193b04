//! SPMD communicator over OS threads.
//!
//! [`Comm`] is the first-class communication surface of the runtime:
//! typed point-to-point transfers plus the collective set the parallel
//! exact-exchange scheme needs (barrier, broadcast, reduce, gather,
//! allgather, reduce-scatter, all-to-all). Every operation returns a
//! [`CommResult`] — a peer that exhausts the retry budget surfaces as
//! [`CommError::Timeout`] instead of a hang.
//!
//! Each collective ships in two algorithmic families selected by
//! [`CollectiveMode`]:
//!
//! * **Flat** — root-based linear algorithms (`P − 1` serial transfers
//!   through the root), the correctness baseline whose modeled cost is
//!   what strangles flat reductions at BG/Q scale;
//! * **Hierarchical** — binomial-tree gather/broadcast/reduce and
//!   recursive-doubling allgather (`⌈log₂ P⌉` rounds), the
//!   dimension-ordered combining-tree structure of the BG/Q collective
//!   network. Gather and allgather move data without arithmetic, so they
//!   are *bitwise identical* to the flat algorithms by construction —
//!   the property the exchange engine's canonical-order reduction relies
//!   on. Tree `allreduce_sum` changes the floating-point association
//!   (documented below) and is therefore not used on the engine's
//!   bit-exact path.
//!
//! Faults (dropped / delayed / duplicated messages, stalled ranks) are
//! injected deterministically by [`FaultInjector`];
//! the transport recovers via sequence-deduplicated retransmission with
//! exponential backoff. See [`crate::fault`].

use crate::error::{CommError, CommResult};
use crate::fault::FaultInjector;
use crate::payload::Payload;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A wire message: `(tag, per-edge sequence number, payload words)`.
type WireMsg = (u64, u64, Vec<f64>);

/// Which collective algorithm family a communicator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveMode {
    /// Root-based linear algorithms (`P − 1` serial transfers).
    #[default]
    Flat,
    /// Binomial-tree / recursive-doubling algorithms (`⌈log₂ P⌉` rounds).
    Hierarchical,
}

impl CollectiveMode {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveMode::Flat => "flat",
            CollectiveMode::Hierarchical => "hierarchical",
        }
    }
}

/// Internal collective tags live in the reserved space with bit 63 set;
/// user tags must keep it clear. `op` identifies the collective, `epoch`
/// the invocation (so a late message from a previous collective can never
/// match the current one), `round` the tree round within it.
fn ctag(op: u8, epoch: u64, round: u32) -> u64 {
    (1u64 << 63) | ((op as u64) << 55) | ((epoch & 0xFFFF_FFFF) << 16) | round as u64
}

const OP_GATHER: u8 = 1;
const OP_BCAST: u8 = 2;
const OP_REDUCE: u8 = 3;
const OP_ALLGATHER: u8 = 4;
const OP_ALLTOALL: u8 = 5;

/// Frame a set of `(rank, words)` entries into one word vector:
/// `[n, (rank, len, words…)…]`. Counts are exact in `f64` (they are far
/// below 2⁵³). Pure data movement — no arithmetic on the payload words —
/// which is what keeps tree-structured gathers bitwise faithful.
fn frame(entries: &[(usize, Vec<f64>)]) -> Vec<f64> {
    let total: usize = entries.iter().map(|(_, w)| w.len() + 2).sum();
    let mut out = Vec::with_capacity(1 + total);
    out.push(entries.len() as f64);
    for (rank, words) in entries {
        out.push(*rank as f64);
        out.push(words.len() as f64);
        out.extend_from_slice(words);
    }
    out
}

/// Inverse of [`frame`].
fn unframe(words: &[f64]) -> Vec<(usize, Vec<f64>)> {
    let n = words[0] as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 1;
    for _ in 0..n {
        let rank = words[pos] as usize;
        let len = words[pos + 1] as usize;
        pos += 2;
        out.push((rank, words[pos..pos + len].to_vec()));
        pos += len;
    }
    out
}

/// Communication interface available to every rank of an SPMD region.
///
/// Object-safe: orchestration code takes `&dyn Comm` so the same driver
/// runs over the plain channel transport ([`LocalComm`]) and the
/// topology-accounting wrapper ([`crate::TorusComm`]). The typed payload
/// helpers are `Self: Sized` conveniences over the word transport.
pub trait Comm {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks.
    fn size(&self) -> usize;
    /// Send `data` to rank `to` with a `tag` (non-blocking, buffered).
    /// Tags with bit 63 set are reserved for the collectives.
    fn send(&self, to: usize, tag: u64, data: Vec<f64>) -> CommResult<()>;
    /// Receive the message with exactly `tag` from rank `from` (blocking;
    /// out-of-order arrivals are buffered). Under a fault plan the wait is
    /// bounded: retries with exponential backoff, then
    /// [`CommError::Timeout`].
    fn recv(&self, from: usize, tag: u64) -> CommResult<Vec<f64>>;
    /// Non-blocking receive: hand back the message with exactly `tag` from
    /// rank `from` if it is already available, `Ok(None)` otherwise —
    /// never waits. Arrivals with other tags are stashed for their own
    /// receives. Under a fault plan a poll doubles as a NACK opportunity:
    /// anything parked on the edge is retransmitted and re-checked, so a
    /// progress engine that polls between compute chunks recovers dropped
    /// and delayed traffic without ever blocking.
    fn try_recv(&self, from: usize, tag: u64) -> CommResult<Option<Vec<f64>>>;
    /// The collective algorithm family this communicator runs.
    fn mode(&self) -> CollectiveMode;
    /// Next collective epoch (every rank calls collectives in the same
    /// order, so the per-rank counters agree globally).
    fn next_epoch(&self) -> u64;
    /// Whether the fault plan stalls this rank for the whole region — a
    /// stalled rank must skip its work *and* every collective.
    fn stalled(&self) -> bool {
        false
    }

    /// Out-of-band failure notification for a *peer* rank — the model's
    /// stand-in for the control system's RAS events (on BG/Q the job
    /// controller learns of a dead node from the machine, not from a
    /// timeout). Deterministic in the fault seed, which is what keeps the
    /// pipelined engine's stall/steal counters replayable; the caller
    /// still decides *when* to act on it (the steal queue waits for the
    /// rank's timeout to fire before re-issuing its chunks).
    fn peer_stalled(&self, _rank: usize) -> bool {
        false
    }

    /// Send a typed payload (see [`Payload`]).
    fn send_payload<P: Payload>(&self, to: usize, tag: u64, payload: P) -> CommResult<()>
    where
        Self: Sized,
    {
        self.send(to, tag, payload.into_words())
    }

    /// Receive a typed payload (see [`Payload`]).
    fn recv_payload<P: Payload>(&self, from: usize, tag: u64) -> CommResult<P>
    where
        Self: Sized,
    {
        Ok(P::from_words(self.recv(from, tag)?))
    }

    /// Element-wise global sum, result replicated on all ranks.
    ///
    /// Flat mode gathers parts to rank 0 in ascending rank order and sums
    /// them sequentially. Hierarchical mode reduces up a binomial tree —
    /// `⌈log₂ P⌉` rounds, but a *different floating-point association*
    /// than flat (each is deterministic; they differ from each other by
    /// round-off). Code that needs cross-mode bitwise identity must use
    /// [`Comm::gather`] and reduce in a canonical order itself.
    fn allreduce_sum(&self, data: &mut [f64]) -> CommResult<()> {
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        let epoch = self.next_epoch();
        match self.mode() {
            CollectiveMode::Flat => {
                let me = self.rank();
                let t_gather = ctag(OP_REDUCE, epoch, 0);
                let t_bcast = ctag(OP_REDUCE, epoch, 1);
                if me == 0 {
                    for from in 1..p {
                        let part = self.recv(from, t_gather)?;
                        if part.len() != data.len() {
                            return Err(CommError::LengthMismatch {
                                expected: data.len(),
                                got: part.len(),
                            });
                        }
                        for (d, x) in data.iter_mut().zip(part) {
                            *d += x;
                        }
                    }
                    for to in 1..p {
                        self.send(to, t_bcast, data.to_vec())?;
                    }
                } else {
                    self.send(0, t_gather, data.to_vec())?;
                    let result = self.recv(0, t_bcast)?;
                    data.copy_from_slice(&result);
                }
                Ok(())
            }
            CollectiveMode::Hierarchical => {
                // Binomial-tree reduce to rank 0 …
                let vr = self.rank();
                let mut mask = 1usize;
                while mask < p {
                    if vr & mask == 0 {
                        let src = vr | mask;
                        if src < p {
                            let part = self.recv(src, ctag(OP_REDUCE, epoch, mask as u32))?;
                            if part.len() != data.len() {
                                return Err(CommError::LengthMismatch {
                                    expected: data.len(),
                                    got: part.len(),
                                });
                            }
                            for (d, x) in data.iter_mut().zip(part) {
                                *d += x;
                            }
                        }
                    } else {
                        let dst = vr - mask;
                        self.send(dst, ctag(OP_REDUCE, epoch, mask as u32), data.to_vec())?;
                        break;
                    }
                    mask <<= 1;
                }
                // … then binomial broadcast of the result.
                let mut out = data.to_vec();
                self.bcast_tree(0, &mut out, epoch)?;
                data.copy_from_slice(&out);
                Ok(())
            }
        }
    }

    /// Broadcast `data` from `root` to every rank.
    fn broadcast(&self, root: usize, data: &mut Vec<f64>) -> CommResult<()> {
        let p = self.size();
        self.check_rank(root)?;
        if p == 1 {
            return Ok(());
        }
        let epoch = self.next_epoch();
        match self.mode() {
            CollectiveMode::Flat => {
                let me = self.rank();
                let tag = ctag(OP_BCAST, epoch, 0);
                if me == root {
                    for to in 0..p {
                        if to != root {
                            self.send(to, tag, data.clone())?;
                        }
                    }
                } else {
                    *data = self.recv(root, tag)?;
                }
                Ok(())
            }
            CollectiveMode::Hierarchical => self.bcast_tree(root, data, epoch),
        }
    }

    /// Binomial-tree broadcast (the hierarchical algorithm; also the
    /// result-distribution stage of the tree allreduce).
    #[doc(hidden)]
    fn bcast_tree(&self, root: usize, data: &mut Vec<f64>, epoch: u64) -> CommResult<()> {
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        // Receive once from the parent (the first set bit of vr) …
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                let src = (vr - mask + root) % p;
                *data = self.recv(src, ctag(OP_BCAST, epoch, mask as u32))?;
                break;
            }
            mask <<= 1;
        }
        // … then relay to children below that bit.
        mask >>= 1;
        while mask > 0 {
            if vr | mask != vr && vr + mask < p {
                let dst = (vr + mask + root) % p;
                self.send(dst, ctag(OP_BCAST, epoch, mask as u32), data.clone())?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Gather per-rank vectors on `root`; returns `Some(parts)` on the
    /// root (indexed by rank) and `None` elsewhere. Strict: an
    /// unresponsive peer fails the whole collective with its
    /// [`CommError::Timeout`]. Data movement only — bitwise identical
    /// across [`CollectiveMode`]s.
    fn gather(&self, root: usize, data: Vec<f64>) -> CommResult<Option<Vec<Vec<f64>>>> {
        match self.gather_partial(root, data)? {
            None => Ok(None),
            Some(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                for (rank, part) in parts.into_iter().enumerate() {
                    match part {
                        Some(p) => out.push(p),
                        None => return Err(CommError::Timeout { rank, attempts: 0 }),
                    }
                }
                Ok(Some(out))
            }
        }
    }

    /// Fault-tolerant gather: the root receives `Some(parts)` with `None`
    /// in the slot of every rank whose contribution never arrived (the
    /// rank stalled, or an intermediate tree node gave up on its
    /// subtree). Non-roots receive `Ok(None)`. The caller decides how to
    /// degrade — the exchange engine re-issues missing ranks' chunks to
    /// survivors.
    fn gather_partial(
        &self,
        root: usize,
        data: Vec<f64>,
    ) -> CommResult<Option<Vec<Option<Vec<f64>>>>> {
        let p = self.size();
        let me = self.rank();
        self.check_rank(root)?;
        if p == 1 {
            return Ok(Some(vec![Some(data)]));
        }
        let epoch = self.next_epoch();
        match self.mode() {
            CollectiveMode::Flat => {
                let tag = ctag(OP_GATHER, epoch, 0);
                if me == root {
                    let mut parts: Vec<Option<Vec<f64>>> = vec![None; p];
                    parts[root] = Some(data);
                    for from in 0..p {
                        if from != root {
                            parts[from] = self.recv(from, tag).ok();
                        }
                    }
                    Ok(Some(parts))
                } else {
                    self.send(root, tag, data)?;
                    Ok(None)
                }
            }
            CollectiveMode::Hierarchical => {
                // Binomial tree toward the root: in round k a rank whose
                // k-th virtual bit is set forwards everything it has
                // collected (framed, with rank ids) to its parent. A
                // timed-out child just leaves its subtree absent.
                let vr = (me + p - root) % p;
                let mut collected: Vec<(usize, Vec<f64>)> = vec![(me, data)];
                let mut mask = 1usize;
                while mask < p {
                    if vr & mask != 0 {
                        let dst = (vr - mask + root) % p;
                        self.send(dst, ctag(OP_GATHER, epoch, mask as u32), frame(&collected))?;
                        return Ok(None);
                    }
                    let src_vr = vr + mask;
                    if src_vr < p {
                        let src = (src_vr + root) % p;
                        if let Ok(words) = self.recv(src, ctag(OP_GATHER, epoch, mask as u32)) {
                            collected.extend(unframe(&words));
                        }
                    }
                    mask <<= 1;
                }
                let mut parts: Vec<Option<Vec<f64>>> = vec![None; p];
                for (rank, words) in collected {
                    parts[rank] = Some(words);
                }
                Ok(Some(parts))
            }
        }
    }

    /// Synchronize all ranks.
    fn barrier(&self) -> CommResult<()> {
        let mut token = [0.0f64];
        self.allreduce_sum(&mut token)
    }

    /// Every rank contributes `data`; every rank receives the
    /// concatenation ordered by rank. Data movement only — bitwise
    /// identical across [`CollectiveMode`]s.
    fn allgather(&self, data: Vec<f64>) -> CommResult<Vec<Vec<f64>>> {
        let p = self.size();
        let me = self.rank();
        if p == 1 {
            return Ok(vec![data]);
        }
        let epoch = self.next_epoch();
        match self.mode() {
            CollectiveMode::Flat => {
                let t_in = ctag(OP_ALLGATHER, epoch, 0);
                let t_out = ctag(OP_ALLGATHER, epoch, 1);
                if me == 0 {
                    let mut entries: Vec<(usize, Vec<f64>)> = vec![(0, data)];
                    for from in 1..p {
                        entries.push((from, self.recv(from, t_in)?));
                    }
                    let flat = frame(&entries);
                    for to in 1..p {
                        self.send(to, t_out, flat.clone())?;
                    }
                    Ok(sort_blocks(entries, p)?)
                } else {
                    self.send(0, t_in, data)?;
                    let flat = self.recv(0, t_out)?;
                    sort_blocks(unframe(&flat), p)
                }
            }
            CollectiveMode::Hierarchical => {
                if p.is_power_of_two() {
                    // Recursive doubling: in round k exchange everything
                    // collected so far with the partner across bit k.
                    let mut collected: Vec<(usize, Vec<f64>)> = vec![(me, data)];
                    let mut mask = 1usize;
                    while mask < p {
                        let partner = me ^ mask;
                        self.send(
                            partner,
                            ctag(OP_ALLGATHER, epoch, mask as u32),
                            frame(&collected),
                        )?;
                        let words = self.recv(partner, ctag(OP_ALLGATHER, epoch, mask as u32))?;
                        collected.extend(unframe(&words));
                        mask <<= 1;
                    }
                    sort_blocks(collected, p)
                } else {
                    // Non-power-of-two: tree gather to 0, tree broadcast
                    // of the framed result — still ⌈log₂ P⌉-depth and
                    // data-movement-only.
                    let parts = self.gather_partial(0, data)?;
                    let mut flat = match parts {
                        Some(parts) => {
                            let entries: Vec<(usize, Vec<f64>)> = parts
                                .into_iter()
                                .enumerate()
                                .map(|(r, part)| match part {
                                    Some(w) => Ok((r, w)),
                                    None => Err(CommError::Timeout {
                                        rank: r,
                                        attempts: 0,
                                    }),
                                })
                                .collect::<CommResult<_>>()?;
                            frame(&entries)
                        }
                        None => Vec::new(),
                    };
                    self.bcast_tree(0, &mut flat, epoch)?;
                    sort_blocks(unframe(&flat), p)
                }
            }
        }
    }

    /// Global element-wise sum of a vector whose length is `P × chunk`;
    /// rank `r` receives summed chunk `r` (reduce-scatter with equal
    /// blocks).
    fn reduce_scatter_block(&self, data: &[f64]) -> CommResult<Vec<f64>> {
        let p = self.size();
        if !data.len().is_multiple_of(p) {
            return Err(CommError::InvalidArgument(format!(
                "reduce_scatter: length {} not divisible by {p}",
                data.len()
            )));
        }
        let chunk = data.len() / p;
        let mut full = data.to_vec();
        self.allreduce_sum(&mut full)?;
        Ok(full[self.rank() * chunk..(self.rank() + 1) * chunk].to_vec())
    }

    /// Personalized all-to-all: `outgoing[d]` is this rank's message for
    /// rank `d`; returns the messages received, indexed by source.
    fn alltoall(&self, outgoing: Vec<Vec<f64>>) -> CommResult<Vec<Vec<f64>>> {
        let me = self.rank();
        let p = self.size();
        if outgoing.len() != p {
            return Err(CommError::InvalidArgument(format!(
                "alltoall needs one message per rank: got {} for {p}",
                outgoing.len()
            )));
        }
        let epoch = self.next_epoch();
        let tag = ctag(OP_ALLTOALL, epoch, 0);
        let mut incoming = vec![Vec::new(); p];
        // Self-message moves locally.
        incoming[me] = outgoing[me].clone();
        for (d, msg) in outgoing.into_iter().enumerate() {
            if d != me {
                self.send(d, tag, msg)?;
            }
        }
        for (s, slot) in incoming.iter_mut().enumerate() {
            if s != me {
                *slot = self.recv(s, tag)?;
            }
        }
        Ok(incoming)
    }

    /// Validate a rank id against this communicator.
    #[doc(hidden)]
    fn check_rank(&self, rank: usize) -> CommResult<()> {
        if rank >= self.size() {
            Err(CommError::InvalidRank {
                rank,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }
}

/// Order framed `(rank, words)` blocks by rank, verifying completeness.
fn sort_blocks(entries: Vec<(usize, Vec<f64>)>, p: usize) -> CommResult<Vec<Vec<f64>>> {
    let mut out: Vec<Option<Vec<f64>>> = vec![None; p];
    for (rank, words) in entries {
        out[rank] = Some(words);
    }
    out.into_iter()
        .enumerate()
        .map(|(rank, part)| part.ok_or(CommError::Timeout { rank, attempts: 0 }))
        .collect()
}

/// Thread-backed communicator.
pub struct LocalComm {
    rank: usize,
    size: usize,
    /// `senders[to]` delivers into `to`'s inbox slot for this rank.
    senders: Vec<Sender<WireMsg>>,
    /// `inboxes[from]` receives messages sent by `from`.
    inboxes: Vec<Receiver<WireMsg>>,
    /// Out-of-order buffer: per source, tag → queue.
    stash: Mutex<Vec<HashMap<u64, VecDeque<Vec<f64>>>>>,
    /// Per-source set of already-delivered sequence numbers (duplicate
    /// suppression under fault injection).
    seen: Mutex<Vec<HashSet<u64>>>,
    /// Per-destination next send sequence number.
    next_seq: Vec<AtomicU64>,
    /// Collective invocation counter (same sequence on every rank).
    epoch: AtomicU64,
    /// Collective algorithm family.
    mode: CollectiveMode,
    /// Fault injection, when this region runs under a plan.
    injector: Option<Arc<FaultInjector>>,
}

impl LocalComm {
    /// Pop a stashed message for `(from, tag)`.
    fn take_stashed(&self, from: usize, tag: u64) -> Option<Vec<f64>> {
        self.stash.lock()[from].get_mut(&tag)?.pop_front()
    }

    /// Admit an arrived wire message: suppress duplicates, hand back the
    /// payload if it matches `wanted`, stash it otherwise.
    fn admit(&self, from: usize, wanted: u64, (tag, seq, data): WireMsg) -> Option<Vec<f64>> {
        if self.injector.is_some() && !self.seen.lock()[from].insert(seq) {
            if let Some(inj) = &self.injector {
                inj.note_dup();
            }
            return None;
        }
        if tag == wanted {
            return Some(data);
        }
        self.stash.lock()[from]
            .entry(tag)
            .or_default()
            .push_back(data);
        None
    }

    /// Dedup-filter an arrived wire message and stash it regardless of
    /// which tag the caller is currently waiting on.
    fn stash_wire(&self, from: usize, (tag, seq, data): WireMsg) {
        if self.injector.is_some() && !self.seen.lock()[from].insert(seq) {
            if let Some(inj) = &self.injector {
                inj.note_dup();
            }
            return;
        }
        self.stash.lock()[from]
            .entry(tag)
            .or_default()
            .push_back(data);
    }
}

impl Comm for LocalComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn mode(&self) -> CollectiveMode {
        self.mode
    }

    fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed)
    }

    fn stalled(&self) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.stalled(self.rank))
    }

    fn peer_stalled(&self, rank: usize) -> bool {
        self.injector.as_ref().is_some_and(|inj| inj.stalled(rank))
    }

    fn send(&self, to: usize, tag: u64, data: Vec<f64>) -> CommResult<()> {
        self.check_rank(to)?;
        if to == self.rank {
            return Err(CommError::SelfMessage { rank: to });
        }
        let seq = self.next_seq[to].fetch_add(1, Ordering::Relaxed);
        let copies = match &self.injector {
            None => 1,
            Some(inj) => match inj.verdict(self.rank, to, seq) {
                crate::fault::Verdict::Deliver => 1,
                crate::fault::Verdict::Duplicate => 2,
                verdict => {
                    inj.park(self.rank, to, (tag, seq, data), verdict);
                    return Ok(());
                }
            },
        };
        for _ in 0..copies {
            self.senders[to]
                .send((tag, seq, data.clone()))
                .map_err(|_| CommError::Disconnected { rank: to })?;
        }
        Ok(())
    }

    fn try_recv(&self, from: usize, tag: u64) -> CommResult<Option<Vec<f64>>> {
        self.check_rank(from)?;
        if from == self.rank {
            return Err(CommError::SelfMessage { rank: from });
        }
        if let Some(msg) = self.take_stashed(from, tag) {
            return Ok(Some(msg));
        }
        while let Ok(wire) = self.inboxes[from].try_recv() {
            if let Some(data) = self.admit(from, tag, wire) {
                return Ok(Some(data));
            }
        }
        // The poll models a piggy-backed NACK: recover everything parked
        // on this edge (dropped/delayed under injection) and re-check.
        if let Some(inj) = &self.injector {
            for wire in inj.retransmit(from, self.rank) {
                self.stash_wire(from, wire);
            }
            if let Some(msg) = self.take_stashed(from, tag) {
                return Ok(Some(msg));
            }
        }
        Ok(None)
    }

    fn recv(&self, from: usize, tag: u64) -> CommResult<Vec<f64>> {
        self.check_rank(from)?;
        if from == self.rank {
            return Err(CommError::SelfMessage { rank: from });
        }
        if let Some(msg) = self.take_stashed(from, tag) {
            return Ok(msg);
        }
        match self.injector.clone() {
            None => loop {
                let wire = self.inboxes[from]
                    .recv()
                    .map_err(|_| CommError::Disconnected { rank: from })?;
                if let Some(data) = self.admit(from, tag, wire) {
                    return Ok(data);
                }
            },
            Some(inj) => {
                let plan = *inj.plan();
                let mut attempts = 0usize;
                loop {
                    if let Some(msg) = self.take_stashed(from, tag) {
                        return Ok(msg);
                    }
                    match self.inboxes[from].recv_timeout(plan.attempt_timeout(attempts)) {
                        Ok(wire) => {
                            if let Some(data) = self.admit(from, tag, wire) {
                                return Ok(data);
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(CommError::Disconnected { rank: from })
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            // The timeout models a NACK reaching the
                            // sender: everything parked on this edge is
                            // retransmitted. Only a fruitless recovery
                            // consumes an attempt.
                            let recovered = inj.retransmit(from, self.rank);
                            let progressed = !recovered.is_empty();
                            for wire in recovered {
                                // Stash unconditionally (dedup applies);
                                // the loop head re-checks the stash.
                                self.stash_wire(from, wire);
                            }
                            if !progressed {
                                inj.note_retry();
                                attempts += 1;
                                if attempts >= plan.max_attempts {
                                    return Err(CommError::Timeout {
                                        rank: from,
                                        attempts,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Everything a [`run_spmd_cfg`] region is configured with.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommConfig {
    /// Collective algorithm family every rank runs.
    pub mode: CollectiveMode,
    /// Deterministic fault plan, if the region runs under injection.
    pub fault: Option<crate::fault::FaultPlan>,
    /// Map ranks onto this torus and account every transfer's route
    /// (hop counts, per-link loads) for the BSP cost model.
    pub torus: Option<liair_bgq::Torus5D>,
}

/// Outcome of a configured SPMD region: per-rank results plus the
/// fault/traffic accounting the configuration enabled.
#[derive(Debug)]
pub struct SpmdRun<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Fault counters `(drops, delays, dups, retransmissions, retries)`
    /// when a fault plan was active.
    pub fault_stats: Option<(usize, usize, usize, usize, usize)>,
    /// The traffic ledger when a torus was configured.
    pub traffic: Option<crate::topo::TrafficLog>,
}

/// Build the channel mesh and per-rank communicators.
fn build_comms(
    nranks: usize,
    mode: CollectiveMode,
    injector: Option<Arc<FaultInjector>>,
) -> Vec<LocalComm> {
    // Channel mesh: tx[from][to].
    let mut txs: Vec<Vec<Option<Sender<WireMsg>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    let mut rxs: Vec<Vec<Option<Receiver<WireMsg>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    for from in 0..nranks {
        for to in 0..nranks {
            if from == to {
                continue;
            }
            let (tx, rx) = unbounded();
            txs[from][to] = Some(tx);
            rxs[to][from] = Some(rx);
        }
    }
    let mut comms: Vec<LocalComm> = Vec::with_capacity(nranks);
    for (rank, rx_row) in rxs.into_iter().enumerate() {
        let senders: Vec<Sender<WireMsg>> = (0..nranks)
            .map(|to| {
                if to == rank {
                    // placeholder channel, never used (self-send errors)
                    unbounded().0
                } else {
                    txs[rank][to].take().expect("mesh slot filled above")
                }
            })
            .collect();
        let inboxes: Vec<Receiver<WireMsg>> = rx_row
            .into_iter()
            .map(|r| r.unwrap_or_else(|| unbounded().1))
            .collect();
        comms.push(LocalComm {
            rank,
            size: nranks,
            senders,
            inboxes,
            stash: Mutex::new(vec![HashMap::new(); nranks]),
            seen: Mutex::new(vec![HashSet::new(); nranks]),
            next_seq: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(0),
            mode,
            injector: injector.clone(),
        });
    }
    comms
}

/// Run `body` as an SPMD region over `nranks` virtual ranks (one OS thread
/// each) and collect each rank's return value, indexed by rank.
///
/// The plain entry point: flat collectives, no faults, no topology. See
/// [`run_spmd_cfg`] for the configured variant.
pub fn run_spmd<T, F>(nranks: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(&LocalComm) -> T + Sync,
{
    assert!(nranks >= 1);
    let comms = build_comms(nranks, CollectiveMode::Flat, None);
    let mut out: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| scope.spawn(|| body(comm)))
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("rank panicked"));
        }
    });
    out.into_iter().map(|o| o.expect("joined above")).collect()
}

/// Run `body` as an SPMD region under a [`CommConfig`]: selectable
/// collective family, deterministic fault injection, and torus traffic
/// accounting. `body` receives the communicator as `&dyn Comm` so it runs
/// unchanged over the plain and the topology-accounting transports.
pub fn run_spmd_cfg<T, F>(nranks: usize, cfg: CommConfig, body: F) -> CommResult<SpmdRun<T>>
where
    T: Send,
    F: Fn(&dyn Comm) -> T + Sync,
{
    if nranks < 1 {
        return Err(CommError::InvalidArgument("nranks must be >= 1".into()));
    }
    let injector = match cfg.fault {
        Some(plan) => Some(Arc::new(FaultInjector::new(plan)?)),
        None => None,
    };
    let torus = match cfg.torus {
        Some(t) => {
            if t.nodes() != nranks {
                return Err(CommError::InvalidArgument(format!(
                    "torus has {} nodes for {nranks} ranks",
                    t.nodes()
                )));
            }
            Some(t)
        }
        None => None,
    };
    let ledger = torus.map(crate::topo::TrafficLog::new);
    let comms = build_comms(nranks, cfg.mode, injector.clone());
    let mut out: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let ledger = &ledger;
        let body = &body;
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                scope.spawn(move || match ledger {
                    Some(log) => {
                        let tc = crate::topo::TorusComm::new(comm, log);
                        body(&tc)
                    }
                    None => body(comm),
                })
            })
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("rank panicked"));
        }
    });
    Ok(SpmdRun {
        results: out.into_iter().map(|o| o.expect("joined above")).collect(),
        fault_stats: injector.map(|inj| inj.stats.snapshot()),
        traffic: ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    const MODES: [CollectiveMode; 2] = [CollectiveMode::Flat, CollectiveMode::Hierarchical];

    fn with_mode(mode: CollectiveMode) -> CommConfig {
        CommConfig {
            mode,
            ..CommConfig::default()
        }
    }

    #[test]
    fn allreduce_sums_over_ranks_in_both_modes() {
        for mode in MODES {
            let run = run_spmd_cfg(4, with_mode(mode), |comm| {
                let mut data = vec![comm.rank() as f64, 1.0];
                comm.allreduce_sum(&mut data).unwrap();
                data
            })
            .unwrap();
            for r in run.results {
                assert_eq!(r, vec![6.0, 4.0], "{}", mode.name());
            }
        }
    }

    #[test]
    fn broadcast_replicates_root_data_in_both_modes() {
        for mode in MODES {
            for root in [0, 2] {
                let run = run_spmd_cfg(5, with_mode(mode), |comm| {
                    let mut data = if comm.rank() == root {
                        vec![3.5, -1.0, 7.0]
                    } else {
                        Vec::new()
                    };
                    comm.broadcast(root, &mut data).unwrap();
                    data
                })
                .unwrap();
                for r in run.results {
                    assert_eq!(r, vec![3.5, -1.0, 7.0], "{} root {root}", mode.name());
                }
            }
        }
    }

    #[test]
    fn ring_pass_accumulates() {
        let results = run_spmd(4, |comm| {
            let me = comm.rank();
            let p = comm.size();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            let mut acc = me as f64;
            for step in 0..p - 1 {
                comm.send(next, step as u64, vec![acc]).unwrap();
                let got = comm.recv(prev, step as u64).unwrap();
                acc = got[0] + me as f64;
            }
            acc
        });
        // Each rank ends with a path sum; the total over ranks is fixed.
        let total: f64 = results.iter().sum();
        assert_eq!(results.len(), 4);
        assert!(total > 0.0);
    }

    #[test]
    fn gather_collects_by_rank_in_both_modes() {
        for mode in MODES {
            for root in [0, 1] {
                for n in [1usize, 2, 3, 4, 7, 8] {
                    if root >= n {
                        continue;
                    }
                    let run = run_spmd_cfg(n, with_mode(mode), move |comm| {
                        let data = vec![comm.rank() as f64; comm.rank() + 1];
                        comm.gather(root, data).unwrap()
                    })
                    .unwrap();
                    for (rank, out) in run.results.into_iter().enumerate() {
                        if rank == root {
                            let parts = out.expect("root gets parts");
                            assert_eq!(parts.len(), n);
                            for (r, part) in parts.iter().enumerate() {
                                assert_eq!(part, &vec![r as f64; r + 1], "{} n={n}", mode.name());
                            }
                        } else {
                            assert!(out.is_none());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn try_recv_never_blocks_and_drains_in_tag_order() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 1 {
                // Nothing in flight on this tag: an immediate None.
                assert_eq!(comm.try_recv(0, 99).unwrap(), None);
                comm.send(0, 100, vec![0.5]).unwrap(); // release the sender
                Vec::new()
            } else {
                comm.recv(1, 100).unwrap() // rank 1 has passed its poll
            }
        });
        assert_eq!(results[0], vec![0.5]);
        let results = run_spmd(2, |comm| {
            if comm.rank() == 1 {
                // Blocking recv of the later tag stashes the earlier one;
                // the poll then serves it from the stash without waiting.
                let b = comm.recv(0, 8).unwrap();
                let a = comm.try_recv(0, 7).unwrap().expect("stashed");
                vec![a[0], b[0]]
            } else {
                comm.send(1, 7, vec![1.0]).unwrap();
                comm.send(1, 8, vec![2.0]).unwrap();
                Vec::new()
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn try_recv_recovers_dropped_traffic_via_poll_nack() {
        // Every first transmission is lost; only the poll's piggy-backed
        // NACK (vault retransmission) can deliver.
        let plan = FaultPlan {
            drop_p: 1.0,
            delay_p: 0.0,
            dup_p: 0.0,
            ..FaultPlan::messages_only(3)
        };
        let cfg = CommConfig {
            mode: CollectiveMode::Flat,
            fault: Some(plan),
            torus: None,
        };
        let run = run_spmd_cfg(2, cfg, |comm| {
            if comm.rank() == 1 {
                comm.send(0, 5, vec![42.0]).unwrap();
                Vec::new()
            } else {
                for _ in 0..1000 {
                    if let Some(msg) = comm.try_recv(1, 5).unwrap() {
                        return msg;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                panic!("poll never recovered the dropped message");
            }
        })
        .unwrap();
        assert_eq!(run.results[0], vec![42.0]);
        let (drops, _, _, retransmissions, _) = run.fault_stats.unwrap();
        assert!(drops >= 1);
        assert!(retransmissions >= drops);
    }

    #[test]
    fn peer_stall_oracle_matches_self_view() {
        let plan = FaultPlan::with_stalls(7);
        let cfg = CommConfig {
            mode: CollectiveMode::Flat,
            fault: Some(plan),
            torus: None,
        };
        let run = run_spmd_cfg(8, cfg, |comm| {
            let me = comm.stalled();
            let seen_by_root: Vec<bool> = (0..comm.size()).map(|r| comm.peer_stalled(r)).collect();
            (me, seen_by_root)
        })
        .unwrap();
        let truth: Vec<bool> = run.results.iter().map(|(s, _)| *s).collect();
        assert!(!truth[0], "rank 0 never stalls");
        for (_, seen) in &run.results {
            assert_eq!(seen, &truth, "the oracle is globally consistent");
        }
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, vec![1.0]).unwrap();
                comm.send(1, 20, vec![2.0]).unwrap();
                Vec::new()
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv(0, 20).unwrap();
                let a = comm.recv(0, 10).unwrap();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn allgather_orders_by_rank_in_both_modes() {
        for mode in MODES {
            // Cover power-of-two (recursive doubling) and not (tree+bcast).
            for n in [1usize, 2, 3, 4, 5, 8] {
                let run = run_spmd_cfg(n, with_mode(mode), move |comm| {
                    comm.allgather(vec![comm.rank() as f64 * 10.0]).unwrap()
                })
                .unwrap();
                for out in run.results {
                    assert_eq!(out.len(), n, "{} n={n}", mode.name());
                    for (r, part) in out.iter().enumerate() {
                        assert_eq!(part, &vec![r as f64 * 10.0]);
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_scatter_sums_and_scatters_in_both_modes() {
        for mode in MODES {
            let run = run_spmd_cfg(3, with_mode(mode), |comm| {
                // Every rank contributes [1, 2, 3, 4, 5, 6] scaled by rank+1.
                let scale = (comm.rank() + 1) as f64;
                let data: Vec<f64> = (1..=6).map(|x| x as f64 * scale).collect();
                comm.reduce_scatter_block(&data).unwrap()
            })
            .unwrap();
            // Sum of scales = 6; rank r gets elements [2r, 2r+1] summed.
            for (rank, out) in run.results.into_iter().enumerate() {
                let want: Vec<f64> = (0..2).map(|i| (2 * rank + i + 1) as f64 * 6.0).collect();
                assert_eq!(out, want, "{}", mode.name());
            }
        }
    }

    #[test]
    fn alltoall_transposes_messages() {
        let results = run_spmd(3, |comm| {
            let me = comm.rank() as f64;
            let outgoing: Vec<Vec<f64>> = (0..3).map(|d| vec![me * 10.0 + d as f64]).collect();
            comm.alltoall(outgoing).unwrap()
        });
        for (rank, incoming) in results.into_iter().enumerate() {
            for (src, msg) in incoming.into_iter().enumerate() {
                assert_eq!(msg, vec![src as f64 * 10.0 + rank as f64]);
            }
        }
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        for mode in MODES {
            let run = run_spmd_cfg(1, with_mode(mode), |comm| {
                let mut v = vec![4.0];
                comm.allreduce_sum(&mut v).unwrap();
                comm.barrier().unwrap();
                let g = comm.gather(0, vec![1.0]).unwrap().unwrap();
                let ag = comm.allgather(vec![2.0]).unwrap();
                (v, g, ag)
            })
            .unwrap();
            let (v, g, ag) = &run.results[0];
            assert_eq!(v, &vec![4.0]);
            assert_eq!(g, &vec![vec![1.0]]);
            assert_eq!(ag, &vec![vec![2.0]]);
        }
    }

    #[test]
    fn barrier_completes_for_many_ranks() {
        for mode in MODES {
            let run = run_spmd_cfg(8, with_mode(mode), |comm| {
                for _ in 0..5 {
                    comm.barrier().unwrap();
                }
                true
            })
            .unwrap();
            assert!(run.results.into_iter().all(|x| x));
        }
    }

    #[test]
    fn modes_are_bitwise_identical_for_data_movement() {
        // gather and allgather move words without arithmetic: flat and
        // hierarchical must agree bit for bit, including signed zeros and
        // subnormals.
        let payload = |rank: usize| {
            vec![
                -0.0,
                f64::MIN_POSITIVE / 2.0,
                (rank as f64 + 1.0) / 3.0,
                1.0e-308,
            ]
        };
        let collect = |mode| {
            run_spmd_cfg(6, with_mode(mode), |comm| {
                let g = comm.gather(0, payload(comm.rank())).unwrap();
                let ag = comm.allgather(payload(comm.rank())).unwrap();
                (g, ag)
            })
            .unwrap()
            .results
        };
        let flat = collect(CollectiveMode::Flat);
        let hier = collect(CollectiveMode::Hierarchical);
        for (f, h) in flat.iter().zip(&hier) {
            let bits = |vs: &Vec<Vec<f64>>| -> Vec<u64> {
                vs.iter().flatten().map(|x| x.to_bits()).collect()
            };
            assert_eq!(f.0.is_some(), h.0.is_some());
            if let (Some(fg), Some(hg)) = (&f.0, &h.0) {
                assert_eq!(bits(fg), bits(hg));
            }
            assert_eq!(bits(&f.1), bits(&h.1));
        }
    }

    #[test]
    fn typed_payloads_ride_point_to_point() {
        let results = run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send_payload(1, 5, (vec![u64::MAX, 7u64], vec![1.5, -0.0]))
                    .unwrap();
                None
            } else {
                Some(comm.recv_payload::<(Vec<u64>, Vec<f64>)>(0, 5).unwrap())
            }
        });
        let (meta, data) = results[1].clone().unwrap();
        assert_eq!(meta, vec![u64::MAX, 7]);
        assert_eq!(data[0], 1.5);
        assert!(data[1].is_sign_negative());
    }

    #[test]
    fn invalid_ranks_are_typed_errors() {
        run_spmd(2, |comm| {
            assert!(matches!(
                comm.send(9, 0, vec![1.0]),
                Err(CommError::InvalidRank { rank: 9, size: 2 })
            ));
            assert!(matches!(
                comm.recv(comm.rank(), 0),
                Err(CommError::SelfMessage { .. })
            ));
            assert!(matches!(
                comm.alltoall(vec![vec![0.0]; 5]),
                Err(CommError::InvalidArgument(_))
            ));
        });
    }

    #[test]
    fn message_faults_are_survived_and_counted() {
        for mode in MODES {
            for seed in [1u64, 2, 3] {
                let cfg = CommConfig {
                    mode,
                    fault: Some(FaultPlan::messages_only(seed)),
                    torus: None,
                };
                let run = run_spmd_cfg(4, cfg, |comm| {
                    let mut acc = vec![comm.rank() as f64];
                    comm.allreduce_sum(&mut acc).unwrap();
                    let g = comm.allgather(vec![comm.rank() as f64; 2]).unwrap();
                    (acc[0], g)
                })
                .unwrap();
                for (sum, g) in run.results {
                    assert_eq!(sum, 6.0, "{} seed {seed}", mode.name());
                    for (r, part) in g.iter().enumerate() {
                        assert_eq!(part, &vec![r as f64; 2]);
                    }
                }
                let stats = run.fault_stats.expect("plan active");
                // Across seeds and modes plenty of messages flow; at least
                // one seed must actually inject something.
                let _ = stats;
            }
        }
    }

    #[test]
    fn injected_drops_eventually_occur_and_recover() {
        // A chatty region under a high drop rate: statistics must show
        // real injections AND every transfer must still complete.
        let plan = FaultPlan {
            drop_p: 0.3,
            delay_p: 0.2,
            dup_p: 0.1,
            ..FaultPlan::messages_only(11)
        };
        let cfg = CommConfig {
            mode: CollectiveMode::Hierarchical,
            fault: Some(plan),
            torus: None,
        };
        let run = run_spmd_cfg(4, cfg, |comm| {
            let mut total = 0.0;
            for round in 0..10u64 {
                let g = comm
                    .allgather(vec![comm.rank() as f64 + round as f64])
                    .unwrap();
                total += g.iter().map(|v| v[0]).sum::<f64>();
            }
            total
        })
        .unwrap();
        let expect: f64 = (0..10).map(|r| (6 + 4 * r) as f64).sum();
        for t in run.results {
            assert_eq!(t, expect);
        }
        let (drops, delays, dups, retransmissions, _) = run.fault_stats.unwrap();
        assert!(drops + delays > 0, "faults must have fired");
        assert_eq!(
            retransmissions,
            drops + delays,
            "all parked traffic recovered"
        );
        let _ = dups;
    }

    #[test]
    fn stalled_rank_times_out_and_partial_gather_degrades() {
        // Force every non-root rank to stall: the root's strict recv gets
        // a typed timeout, and gather_partial reports the missing slots.
        let plan = FaultPlan {
            stall_p: 1.0,
            drop_p: 0.0,
            delay_p: 0.0,
            dup_p: 0.0,
            max_attempts: 2,
            base_timeout: std::time::Duration::from_millis(5),
            ..FaultPlan::messages_only(0)
        };
        let cfg = CommConfig {
            mode: CollectiveMode::Flat,
            fault: Some(plan),
            torus: None,
        };
        let run = run_spmd_cfg(3, cfg, |comm| {
            if comm.stalled() {
                return (true, None);
            }
            let parts = comm.gather_partial(0, vec![comm.rank() as f64]).unwrap();
            (false, parts)
        })
        .unwrap();
        let (stalled0, parts) = &run.results[0];
        assert!(!stalled0, "rank 0 never stalls");
        let parts = parts.as_ref().expect("root sees partial result");
        assert_eq!(parts[0], Some(vec![0.0]));
        assert_eq!(parts[1], None, "stalled rank's slot degrades to None");
        assert_eq!(parts[2], None);
        assert!(run.results[1].0 && run.results[2].0, "others stalled");
    }

    #[test]
    fn strict_gather_surfaces_timeout_for_stalled_peer() {
        let plan = FaultPlan {
            stall_p: 1.0,
            drop_p: 0.0,
            delay_p: 0.0,
            dup_p: 0.0,
            max_attempts: 2,
            base_timeout: std::time::Duration::from_millis(5),
            ..FaultPlan::messages_only(0)
        };
        let cfg = CommConfig {
            mode: CollectiveMode::Flat,
            fault: Some(plan),
            torus: None,
        };
        let run = run_spmd_cfg(2, cfg, |comm| {
            if comm.stalled() {
                return None;
            }
            Some(comm.gather(0, vec![1.0]))
        })
        .unwrap();
        match run.results[0].as_ref().unwrap() {
            Err(CommError::Timeout { rank: 1, .. }) => {}
            other => panic!("expected timeout for rank 1, got {other:?}"),
        }
    }

    #[test]
    fn fault_schedules_replay_deterministically() {
        let snapshot = |seed: u64| {
            let cfg = CommConfig {
                mode: CollectiveMode::Hierarchical,
                fault: Some(FaultPlan::messages_only(seed)),
                torus: None,
            };
            run_spmd_cfg(4, cfg, |comm| {
                let mut v = vec![comm.rank() as f64];
                comm.allreduce_sum(&mut v).unwrap();
                v[0]
            })
            .unwrap()
            .fault_stats
            .unwrap()
        };
        let (d1, dl1, du1, _, _) = snapshot(77);
        let (d2, dl2, du2, _, _) = snapshot(77);
        assert_eq!((d1, dl1, du1), (d2, dl2, du2), "same seed, same schedule");
    }

    #[test]
    fn frame_unframe_round_trips() {
        let entries = vec![
            (3usize, vec![1.0, -0.0, 5.5]),
            (0usize, Vec::new()),
            (7usize, vec![f64::MIN_POSITIVE]),
        ];
        let decoded = unframe(&frame(&entries));
        assert_eq!(decoded.len(), entries.len());
        for ((ra, va), (rb, vb)) in entries.iter().zip(&decoded) {
            assert_eq!(ra, rb);
            let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(va), bits(vb));
        }
    }
}
