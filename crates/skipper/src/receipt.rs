//! Run traces and receipt hashes: the verifiable side of the backend
//! contract.
//!
//! Output equality alone says two backends *landed* in the same place;
//! a [`RunReceipt`] additionally proves they took **equivalent
//! schedules** to get there. Every backend records the same *canonical
//! trace* for a given program and input — an ordered list of logical
//! job-assignment events, written at dispatch time on the calling
//! thread, independent of which physical worker eventually runs the
//! job:
//!
//! - [`TraceEvent::Assign`] per farm item / `scm` fragment / `tf` root,
//!   carrying the item's sequence number and its deterministic
//!   [`partition`] (the shard a hash-partitioned backend routes it to);
//! - [`TraceEvent::Frame`] per `itermem` loop iteration (inner loops
//!   restart their frame numbering per burst, on every backend alike).
//!
//! The trace is therefore a pure function of `(program, input)`:
//! `SeqBackend`, `PoolBackend`,
//! [`ShardBackend`](crate::dist::ShardBackend) and a
//! [`DistBackend`](crate::dist::DistBackend) worker process all produce
//! the identical event list — and so the identical `trace_hash` — while
//! remaining free to schedule the physical work however they like. The
//! conformance kit's receipt axis
//! ([`crate::conformance::assert_receipts_match`]) pins exactly this.
//!
//! Recording costs one thread-local flag check when off
//! ([`trace_active`]); [`receipted`] wraps any run in a trace scope and
//! folds the result into `RunReceipt { input_hash, trace_hash,
//! output_hash }`, hashing input and output through their canonical
//! wire encoding ([`crate::wire::ToWire`]). Hashes are 64-bit
//! [`WordHasher`] values: a folded multiply over 8-byte words in four
//! lanes, std-only, deterministic across platforms, and strong enough to
//! make schedule or data divergence between cooperating
//! (non-adversarial) backends visible. It is not a cryptographic digest
//! and does not resist inputs crafted to collide. The hash function is
//! part of the wire contract: changing it bumps
//! [`crate::wire::VERSION`] (version 1 hashed receipts with byte-serial
//! FNV-1a, [`fnv1a`], which still routes farm items to [`partition`]s).
//!
//! ```
//! use skipper::receipt::receipted;
//! use skipper::{df, Backend, PoolBackend, SeqBackend};
//!
//! let farm = df(4, |x: &i64| x * x, |z: i64, y| z + y, 0i64);
//! let xs: Vec<i64> = (0..32).collect();
//! let (_, seq) = receipted(&xs, || SeqBackend.run(&farm, &xs[..]));
//! let (_, pool) = receipted(&xs, || PoolBackend::new().run(&farm, &xs[..]));
//! assert_eq!(seq, pool); // same input, same schedule, same output
//! ```

use crate::wire::{ByteSink, Encoder, ToWire, WireValue};
use std::cell::RefCell;

/// The receipt hash of the empty byte stream (and so of the empty
/// trace): [`WordHasher::new`]`().finish()`.
pub const EMPTY_HASH: u64 = 0x344e_0a6f_f0d8_e804;

/// Bytes one round of the four lanes consumes: two words per lane.
const BLOCK: usize = 64;

/// The hasher's constants: odd 64-bit words with exactly 32 bits set,
/// as in wyhash's and rapidhash's secret tables. Lanes start at the
/// first four; block words are keyed with the last four.
const SECRET: [u64; 8] = [
    0x2d35_8dcc_aa6c_78a5,
    0x8bb8_4b93_962e_acc9,
    0x4b33_a62e_d433_d4a3,
    0x4d5a_2da5_1de1_aa47,
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// The folded multiply: the 128-bit product of `a` and `b`, its two
/// halves xored.
#[inline(always)]
fn mix(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Folds one block into the four lanes: lane `i` multiplies its first
/// word (keyed) by its second word xored with the lane's state, so the
/// lanes' multiplies are independent of one another.
#[inline(always)]
fn absorb(lanes: &mut [u64; 4], block: &[u8; BLOCK]) {
    let word = |i: usize| {
        let mut w = [0; 8];
        w.copy_from_slice(&block[8 * i..8 * i + 8]);
        u64::from_le_bytes(w)
    };
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = mix(word(2 * i) ^ SECRET[4 + i], word(2 * i + 1) ^ *lane);
    }
}

/// The receipt hasher: a wyhash-style folded multiply over 8-byte
/// little-endian words, four independent lanes wide, so a block costs
/// four multiplies that do not wait on one another (byte-serial FNV-1a
/// costs one dependent multiply per byte). Bytes are gathered into
/// 64-byte blocks at absolute stream offsets, the tail is zero-padded
/// and the finalizer mixes in the stream length, so the value depends
/// only on the byte stream, never on how it was split into
/// [`WordHasher::write`] calls. Std-only and platform-independent. Like
/// wyhash it has a blind spot only crafted input finds: a block word
/// equal to its key, or to its lane's state, zeroes the lane (see the
/// module docs for why that is acceptable here).
#[derive(Debug, Clone)]
pub struct WordHasher {
    lanes: [u64; 4],
    /// The partial block; its first `held` bytes are pending.
    buf: [u8; BLOCK],
    held: usize,
    /// Bytes fed so far.
    len: u64,
}

impl WordHasher {
    /// A fresh hasher (its [`WordHasher::finish`] is [`EMPTY_HASH`]).
    pub fn new() -> Self {
        WordHasher {
            lanes: [SECRET[0], SECRET[1], SECRET[2], SECRET[3]],
            buf: [0; BLOCK],
            held: 0,
            len: 0,
        }
    }

    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.held > 0 {
            let take = bytes.len().min(BLOCK - self.held);
            self.buf[self.held..self.held + take].copy_from_slice(&bytes[..take]);
            self.held += take;
            bytes = &bytes[take..];
            if self.held < BLOCK {
                return;
            }
            absorb(&mut self.lanes, &self.buf);
            self.held = 0;
        }
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            absorb(&mut self.lanes, block.try_into().expect("a whole block"));
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.held = rest.len();
    }

    /// The hash of the bytes fed so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.held > 0 {
            let mut last = [0; BLOCK];
            last[..self.held].copy_from_slice(&self.buf[..self.held]);
            absorb(&mut lanes, &last);
        }
        let a = mix(lanes[0] ^ SECRET[4], lanes[1] ^ self.len);
        let b = mix(lanes[2] ^ SECRET[5], lanes[3] ^ SECRET[6]);
        mix(a ^ SECRET[7], b ^ self.len)
    }
}

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher::new()
    }
}

/// Hashing is encoding into the hasher: [`wire_hash`] streams canonical
/// bytes straight in.
impl ByteSink for WordHasher {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// One-shot receipt hash of `bytes`.
pub fn word_hash(bytes: &[u8]) -> u64 {
    let mut h = WordHasher::new();
    h.write(bytes);
    h.finish()
}

/// The canonical wire hash of any encodable value: [`word_hash`] of its
/// headerless [`crate::wire::canonical_bytes`], streamed through the
/// [`Encoder`] into the hasher without building a byte buffer. This is
/// the `input_hash`/`output_hash` function of every [`RunReceipt`].
pub fn wire_hash<T: ToWire + ?Sized>(value: &T) -> u64 {
    let mut h = WordHasher::new();
    value.encode(&mut Encoder::new(&mut h));
    h.finish()
}

/// The FNV-1a 64-bit offset basis (also the hash of empty input).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`: the [`partition`] function, and the
/// receipt hash of wire version 1 (receipts pinned under it can be
/// re-checked from the same canonical bytes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Number of logical partitions farm traffic is hashed into. Shards map
/// partitions onto pools by `part % n_shards`, so the partition of an
/// item — and hence the canonical trace — is independent of the shard
/// count.
pub const PARTITIONS: u64 = 64;

/// The deterministic partition of farm item `seq`: FNV-1a of its LE
/// bytes, reduced mod [`PARTITIONS`]. Pure function of the sequence
/// number — every backend, in every process, computes the same value.
pub fn partition(seq: u64) -> u64 {
    fnv1a(&seq.to_le_bytes()) % PARTITIONS
}

/// One logical scheduling event in a canonical trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Farm work unit `seq` (item, fragment or root task) dispatched to
    /// logical partition `part` (always [`partition`]`(seq)`).
    Assign {
        /// Zero-based sequence number within the current farm round.
        seq: u64,
        /// The unit's deterministic partition.
        part: u64,
    },
    /// `itermem` loop iteration `seq` started (restarting from 0 for
    /// each inner burst).
    Frame {
        /// Zero-based frame number within the current loop.
        seq: u64,
    },
}

impl TraceEvent {
    /// Feeds this event's canonical bytes into `h` (a [`WordHasher`],
    /// or a byte buffer): [`Trace::hash`] hashes these bytes for every
    /// event in order, so a dispatcher can hash its trace as it goes
    /// without collecting the events.
    pub fn hash_into<S: ByteSink + ?Sized>(&self, h: &mut S) {
        match self {
            TraceEvent::Assign { seq, part } => {
                let mut bytes = [0x01; 17];
                bytes[1..9].copy_from_slice(&seq.to_le_bytes());
                bytes[9..].copy_from_slice(&part.to_le_bytes());
                h.put(&bytes);
            }
            TraceEvent::Frame { seq } => {
                let mut bytes = [0x02; 9];
                bytes[1..].copy_from_slice(&seq.to_le_bytes());
                h.put(&bytes);
            }
        }
    }
}

/// An ordered canonical trace: the job-assignment log of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The events, in dispatch order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Folds the event list into a single receipt hash (the empty trace
    /// hashes to [`EMPTY_HASH`]).
    pub fn hash(&self) -> u64 {
        let mut h = WordHasher::new();
        self.events.iter().for_each(|ev| ev.hash_into(&mut h));
        h.finish()
    }
}

thread_local! {
    /// The active trace sink of this thread, if a [`receipted`] scope is
    /// open. Dispatch sites record here; `None` (the overwhelmingly
    /// common state) makes recording a single flag check.
    static SINK: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Whether a trace scope is open **on this thread**. Dispatch sites
/// check this before doing any per-event work; recording happens on the
/// dispatching (master) thread only — pool/shard worker threads always
/// see `false`.
pub fn trace_active() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Records the canonical assignment round for `count` farm units
/// (sequence numbers `0..count`): what every backend logs when it
/// dispatches one farm round.
pub fn record_assigns(count: usize) {
    if count == 0 || !trace_active() {
        return;
    }
    SINK.with(|s| {
        if let Some(trace) = s.borrow_mut().as_mut() {
            trace.events.reserve(count);
            for seq in 0..count as u64 {
                trace.events.push(TraceEvent::Assign {
                    seq,
                    part: partition(seq),
                });
            }
        }
    });
}

/// Records the start of loop iteration `seq` (no-op without an open
/// scope).
pub fn record_frame(seq: u64) {
    SINK.with(|s| {
        if let Some(trace) = s.borrow_mut().as_mut() {
            trace.events.push(TraceEvent::Frame { seq });
        }
    });
}

/// Opens a trace scope on this thread, saving any outer scope. Use
/// through [`receipted`]; exposed for backends (like the dist worker)
/// that assemble receipts by hand.
pub fn begin_trace() -> TraceScope {
    let outer = SINK.with(|s| s.borrow_mut().replace(Trace::default()));
    TraceScope {
        outer,
        finished: false,
    }
}

/// An open trace scope (see [`begin_trace`]); dropping it without
/// [`TraceScope::finish`] discards the recorded events and restores any
/// outer scope (so an unwinding run cannot leak an active sink).
#[derive(Debug)]
pub struct TraceScope {
    outer: Option<Trace>,
    finished: bool,
}

impl TraceScope {
    /// Closes the scope, restoring any outer scope, and returns the
    /// recorded trace.
    pub fn finish(mut self) -> Trace {
        self.finished = true;
        SINK.with(|s| {
            let mut sink = s.borrow_mut();
            let recorded = sink.take().unwrap_or_default();
            *sink = self.outer.take();
            recorded
        })
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if !self.finished {
            SINK.with(|s| {
                *s.borrow_mut() = self.outer.take();
            });
        }
    }
}

/// A verifiable summary of one run: canonical hashes of the input, the
/// schedule (the canonical trace) and the output. Two backends that
/// executed equivalent runs produce **equal** receipts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReceipt {
    /// [`wire_hash`] of the input: [`word_hash`] over its canonical
    /// wire bytes.
    pub input_hash: u64,
    /// [`Trace::hash`] of the canonical trace.
    pub trace_hash: u64,
    /// [`wire_hash`] of the output: [`word_hash`] over its canonical
    /// wire bytes.
    pub output_hash: u64,
}

impl RunReceipt {
    /// Folds per-part receipts (per frame, per shard) into one aggregate
    /// receipt, componentwise and order-sensitively.
    pub fn fold(parts: &[RunReceipt]) -> RunReceipt {
        let mut input = WordHasher::new();
        let mut trace = WordHasher::new();
        let mut output = WordHasher::new();
        for r in parts {
            input.write(&r.input_hash.to_le_bytes());
            trace.write(&r.trace_hash.to_le_bytes());
            output.write(&r.output_hash.to_le_bytes());
        }
        RunReceipt {
            input_hash: input.finish(),
            trace_hash: trace.finish(),
            output_hash: output.finish(),
        }
    }
}

/// A run's output together with the receipt the run computed itself —
/// on a fleet, in the worker process (or, for a sharded farm, at the
/// master) — rather than one a local [`receipted`] scope recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipted<T> {
    /// The run's output.
    pub output: T,
    /// The receipt that came back with it.
    pub receipt: RunReceipt,
}

impl ToWire for RunReceipt {
    fn to_wire(&self) -> WireValue {
        WireValue::Tuple(vec![
            self.input_hash.to_wire(),
            self.trace_hash.to_wire(),
            self.output_hash.to_wire(),
        ])
    }
}

impl crate::wire::FromWire for RunReceipt {
    fn from_wire(v: &WireValue) -> Option<Self> {
        let (input_hash, trace_hash, output_hash) = <(u64, u64, u64)>::from_wire(v)?;
        Some(RunReceipt {
            input_hash,
            trace_hash,
            output_hash,
        })
    }
}

/// Runs `run` inside a trace scope and folds everything into a
/// [`RunReceipt`]: the canonical workflow for receipt-verified
/// execution on any backend.
pub fn receipted<In, Out, F>(input: &In, run: F) -> (Out, RunReceipt)
where
    In: ToWire + ?Sized,
    Out: ToWire,
    F: FnOnce() -> Out,
{
    let input_hash = wire_hash(input);
    let scope = begin_trace();
    let out = run();
    let trace = scope.finish();
    let receipt = RunReceipt {
        input_hash,
        trace_hash: trace.hash(),
        output_hash: wire_hash(&out),
    };
    (out, receipt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{df, itermem, scm, Backend, PoolBackend, SeqBackend, Workers};

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The canonical bytes of a 4096-item `i64` list.
    fn ints_document() -> (Vec<i64>, Vec<u8>) {
        let xs: Vec<i64> = (0..4096).map(|i| i * -7919 + 3).collect();
        let bytes = crate::wire::canonical_bytes(&xs.to_wire());
        (xs, bytes)
    }

    #[test]
    fn word_hash_matches_the_pinned_vectors() {
        assert_eq!(WordHasher::new().finish(), EMPTY_HASH);
        assert_eq!(word_hash(b""), EMPTY_HASH);
        assert_eq!(word_hash(b"a"), 0xba7f_0218_b833_ddc6);
        let (xs, bytes) = ints_document();
        assert_eq!(bytes.len(), 5 + 9 * 4096);
        assert_eq!(word_hash(&bytes), 0xf881_4b88_4100_d6b5);
        assert_eq!(wire_hash(&xs), word_hash(&bytes));
    }

    #[test]
    fn the_hash_depends_on_the_bytes_not_on_the_puts() {
        let bytes: Vec<u8> = (0..1300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let whole = word_hash(&bytes);
        for cut in 0..=bytes.len() {
            let mut h = WordHasher::new();
            h.write(&bytes[..cut]);
            h.write(&bytes[cut..]);
            assert_eq!(h.finish(), whole, "split at {cut}");
        }
        for put in [1, 9, 576] {
            for lead in 0..put {
                let mut h = WordHasher::new();
                h.write(&bytes[..lead]);
                bytes[lead..].chunks(put).for_each(|c| h.write(c));
                assert_eq!(h.finish(), whole, "{put}-byte puts after {lead}");
            }
        }
    }

    #[test]
    fn a_one_bit_flip_near_either_end_changes_the_hash() {
        let (_, mut bytes) = ints_document();
        let whole = word_hash(&bytes);
        let n = bytes.len();
        let mut seen = std::collections::BTreeSet::from([whole]);
        for at in (0..64).chain(n - 64..n) {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                assert!(seen.insert(word_hash(&bytes)), "byte {at} bit {bit}");
                bytes[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn trailing_zeros_and_lengths_are_told_apart() {
        // The tail block is zero-padded; the length keeps these apart.
        let hashes: std::collections::BTreeSet<u64> =
            (0..=130).map(|n| word_hash(&vec![0; n])).collect();
        assert_eq!(hashes.len(), 131);
    }

    #[test]
    fn partitions_keep_their_version_1_values() {
        // Routing stays FNV-1a of the sequence number: shard routing, the
        // fleet's round plans and `Assign` events do not move with the
        // receipt hash.
        let parts: Vec<u8> = (0..4096).map(|seq| partition(seq) as u8).collect();
        assert_eq!(parts[..8], [5, 36, 7, 38, 1, 32, 3, 34]);
        assert_eq!(fnv1a(&parts), 0xb8ec_f248_f9bb_0d25);
    }

    #[test]
    fn partition_is_deterministic_and_in_range() {
        for seq in 0..512u64 {
            let p = partition(seq);
            assert!(p < PARTITIONS);
            assert_eq!(p, partition(seq));
        }
        // Not all on one partition (the router really spreads traffic).
        let distinct: std::collections::BTreeSet<u64> = (0..512).map(partition).collect();
        assert!(distinct.len() > PARTITIONS as usize / 2);
    }

    #[test]
    fn the_empty_trace_hashes_to_the_offset_basis() {
        assert_eq!(Trace::default().hash(), EMPTY_HASH);
    }

    #[test]
    fn recording_without_a_scope_is_a_no_op() {
        assert!(!trace_active());
        record_assigns(5);
        record_frame(0);
        let (_, receipt) = receipted(&0i64, || 0i64);
        assert_eq!(receipt.trace_hash, EMPTY_HASH, "nothing leaked in");
    }

    #[test]
    fn scopes_capture_and_restore() {
        let scope = begin_trace();
        assert!(trace_active());
        record_assigns(2);
        record_frame(7);
        let trace = scope.finish();
        assert!(!trace_active());
        assert_eq!(
            trace.events,
            vec![
                TraceEvent::Assign {
                    seq: 0,
                    part: partition(0)
                },
                TraceEvent::Assign {
                    seq: 1,
                    part: partition(1)
                },
                TraceEvent::Frame { seq: 7 },
            ]
        );
        // A dropped (unfinished) scope restores the inactive state too.
        drop(begin_trace());
        assert!(!trace_active());
    }

    #[test]
    fn receipts_agree_across_host_backends() {
        let farm = df(4, |x: &i64| x * x + 3, |z: i64, y| z + y, 10i64);
        let xs: Vec<i64> = (0..40).collect();
        let (out_seq, seq) = receipted(&xs, || SeqBackend.run(&farm, &xs[..]));
        let pool = PoolBackend::configured(Workers::exact(3));
        let (out_pool, plr) = receipted(&xs, || pool.run(&farm, &xs[..]));
        assert_eq!(out_seq, out_pool);
        assert_eq!(seq, plr);
        assert_ne!(seq.trace_hash, EMPTY_HASH, "the farm round was traced");
    }

    #[test]
    fn receipts_distinguish_different_inputs_and_schedules() {
        let farm = df(4, |x: &i64| *x, |z: i64, y| z + y, 0i64);
        let a: Vec<i64> = (0..8).collect();
        let b: Vec<i64> = (0..9).collect();
        let (_, ra) = receipted(&a, || SeqBackend.run(&farm, &a[..]));
        let (_, rb) = receipted(&b, || SeqBackend.run(&farm, &b[..]));
        assert_ne!(ra.input_hash, rb.input_hash);
        assert_ne!(ra.trace_hash, rb.trace_hash, "one more assignment event");
    }

    #[test]
    fn loop_runs_record_frame_events() {
        let body = scm(
            2,
            |t: &(i64, i64), n| (0..n as i64).map(|k| (t.0 + k, t.1)).collect::<Vec<_>>(),
            |p: (i64, i64)| p.0 + p.1,
            |parts: Vec<i64>| {
                let s: i64 = parts.iter().sum();
                (s, s)
            },
        );
        let prog = itermem(body, 1i64);
        let frames = vec![3i64, 4, 5];
        let scope = begin_trace();
        SeqBackend.run(&prog, frames.clone());
        let trace = scope.finish();
        let frame_events: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Frame { seq } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(frame_events, vec![0, 1, 2]);
        let pool = PoolBackend::new();
        let (_, pooled) = receipted(&frames, || pool.run(&prog, frames.clone()));
        let (_, declarative) = receipted(&frames, || SeqBackend.run(&prog, frames.clone()));
        assert_eq!(pooled, declarative);
    }

    #[test]
    fn fold_is_order_sensitive_and_deterministic() {
        let a = RunReceipt {
            input_hash: 1,
            trace_hash: 2,
            output_hash: 3,
        };
        let b = RunReceipt {
            input_hash: 4,
            trace_hash: 5,
            output_hash: 6,
        };
        assert_eq!(RunReceipt::fold(&[a, b]), RunReceipt::fold(&[a, b]));
        assert_ne!(RunReceipt::fold(&[a, b]), RunReceipt::fold(&[b, a]));
        assert_ne!(RunReceipt::fold(&[]), RunReceipt::fold(&[a]));
    }

    #[test]
    fn receipts_round_trip_through_the_wire() {
        use crate::wire::FromWire;
        let r = RunReceipt {
            input_hash: u64::MAX,
            trace_hash: 7,
            output_hash: 0,
        };
        assert_eq!(RunReceipt::from_wire(&r.to_wire()), Some(r));
    }
}
