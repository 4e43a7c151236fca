//! Distributed backends: sharded pools in one process, master/worker
//! over OS-process pipes — with a verifiable run contract.
//!
//! Two rungs above [`crate::PoolBackend`] on the backend ladder:
//!
//! - [`ShardBackend`] — **N independent [`WorkerPool`]s** in one
//!   process. Farm traffic is partitioned *deterministically*: item `i`
//!   belongs to logical partition [`partition`]`(i)` (a pure hash of
//!   its sequence number), and partition `p` is served by shard
//!   `p % n_shards`. Because the partition function is input-only, the
//!   canonical trace — and therefore the
//!   [`RunReceipt`] — is identical to every
//!   other backend's. Results are reassembled **in item order** at the
//!   master, so `df`/`scm` sharded runs equal the declarative semantics
//!   exactly (for `tf` the usual commutative-associative side condition
//!   applies, as on every parallel backend).
//! - [`DistBackend`] — master and workers are **separate OS
//!   processes** (`std::process`), speaking the canonical [`crate::wire`]
//!   encoding over stdin/stdout pipes. The protocol opens with a
//!   `hello`/`hello-ack` **version handshake** (a worker built against a
//!   different [`crate::wire::VERSION`] refuses service with a pinned
//!   error), then exchanges length-prefixed job/result frames, and ends
//!   with an orderly `shutdown`/`bye`. Every result carries the worker's
//!   own [`RunReceipt`], so the master can
//!   verify — not assume — that the remote schedule and output match the
//!   local contract. Closures cannot cross a process boundary, so dist
//!   jobs name programs from the [`crate::conformance`] case catalog
//!   (`df`, `scm`, `tf`, `then`, `itermem`, ...) plus the worker degree;
//!   the `df` case additionally supports a *map* path
//!   ([`DistBackend::run_df_sharded`]) that really spreads one farm's
//!   items over all worker processes.
//!
//! The worker side is [`serve_connection`], generic over
//! `Read`/`Write` so the whole protocol is unit-tested in-process over
//! byte channels; the `skipper-worker` binary (in `skipper-bench`) is a
//! thin `stdin`/`stdout` wrapper around it.
//!
//! ```no_run
//! use skipper::dist::DistBackend;
//! use std::process::Command;
//!
//! let dist = DistBackend::spawn(2, || Command::new("skipper-worker")).unwrap();
//! let (total, receipt) = dist.run_df_sharded(4, &(0..100).collect::<Vec<i64>>()).unwrap();
//! println!("total {total}, schedule hash {:#x}", receipt.trace_hash);
//! dist.shutdown().unwrap();
//! ```

use crate::backend::{Backend, Dispatch};
use crate::pool::{PoolBackend, WorkerPool};
use crate::program::Workers;
use crate::receipt::{partition, receipted, wire_hash, RunReceipt, TraceEvent, WordHasher};
use crate::wire::{self, Cursor, FromWire, ToWire, WireValue};
use std::io::{self, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// ShardBackend: hash-partitioned farms over N independent pools
// ---------------------------------------------------------------------------

/// N independent worker pools with deterministic hash-partitioned farm
/// traffic — the single-machine rehearsal of distribution (every shard
/// could become a process without changing any routing decision).
/// Clones share the shard pools.
#[derive(Debug, Clone)]
pub struct ShardBackend {
    shards: Vec<Arc<WorkerPool>>,
}

impl ShardBackend {
    /// `n_shards` shards (at least 1), each a pool sized by the
    /// environment (see [`Workers::FromEnv`]).
    pub fn new(n_shards: usize) -> Self {
        ShardBackend::configured(n_shards, Workers::FromEnv)
    }

    /// `n_shards` shards (at least 1), each a pool sized by `workers`.
    pub fn configured(n_shards: usize, workers: Workers) -> Self {
        let n = n_shards.max(1);
        ShardBackend {
            shards: (0..n)
                .map(|_| Arc::new(WorkerPool::new(workers.resolve_or_default())))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard pools (shared with every clone of this backend).
    pub fn shards(&self) -> &[Arc<WorkerPool>] {
        &self.shards
    }
}

/// Lane `l` is shard `l`: a round's units are routed to shards by their
/// deterministic partition, and each shard's jobs run on its own pool.
/// The coordinator **parks** instead of helping: lanes other than 0 are
/// coordinated from scoped threads that die with the run, and a compute
/// job stolen by one of them would lease frame-arena buffers that are
/// never recycled (see [`WorkerPool::scope_park`]).
impl Dispatch for ShardBackend {
    fn lanes(&self) -> usize {
        self.shards.len()
    }

    fn run_jobs(&self, lane: usize, jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        self.shards[lane].scope_park(|s| {
            for j in 0..jobs {
                s.spawn(move || job(j));
            }
        });
    }
}

// ---------------------------------------------------------------------------
// The dist protocol
// ---------------------------------------------------------------------------

/// A failure in the master/worker protocol. The `Display` strings are
/// pinned by the dist conformance tests.
#[derive(Debug)]
pub enum DistError {
    /// The worker refused or bungled the version handshake.
    Handshake(String),
    /// A well-formed but protocol-violating message (wrong shape, wrong
    /// id, unexpected head).
    Protocol(String),
    /// An error the worker reported while executing a job.
    Worker(String),
    /// The pipe itself failed (includes wire-decode errors).
    Io(io::Error),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Handshake(m) => write!(f, "dist handshake failed: {m}"),
            DistError::Protocol(m) => write!(f, "dist protocol violation: {m}"),
            DistError::Worker(m) => write!(f, "dist worker error: {m}"),
            DistError::Io(e) => write!(f, "dist i/o error: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<wire::WireError> for DistError {
    fn from(e: wire::WireError) -> Self {
        DistError::Io(e.into())
    }
}

fn s(text: &str) -> WireValue {
    WireValue::Str(text.to_string())
}

fn head_of(v: &WireValue) -> Option<(&str, &[WireValue])> {
    match v {
        WireValue::Tuple(items) => match items.split_first() {
            Some((WireValue::Str(h), rest)) => Some((h.as_str(), rest)),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The worker side
// ---------------------------------------------------------------------------

/// Runs one case from the [`crate::conformance`] catalog on the
/// worker's local pool, under a receipt scope. Returns the wire-encoded
/// output plus the worker's own receipt.
fn run_catalog(
    pool: &PoolBackend,
    case: &str,
    degree: usize,
    input: &WireValue,
) -> Result<(WireValue, RunReceipt), String> {
    use crate::conformance as cases;
    fn decode<T: FromWire>(input: &WireValue, case: &str) -> Result<T, String> {
        T::from_wire(input).ok_or_else(|| format!("malformed input for case `{case}`"))
    }
    match case {
        "df" => {
            let xs: Vec<i64> = decode(input, case)?;
            let prog = cases::df_case(degree);
            let (out, r) = receipted(&xs, || pool.run(&prog, &xs[..]));
            Ok((out.to_wire(), r))
        }
        "scm" => {
            let xs: Vec<i64> = decode(input, case)?;
            let prog = cases::scm_case(degree);
            let (out, r) = receipted(&xs, || pool.run(&prog, &xs));
            Ok((out.to_wire(), r))
        }
        "tf" => {
            let roots: Vec<u64> = decode(input, case)?;
            let prog = cases::tf_case(degree);
            let (out, r) = receipted(&roots, || pool.run(&prog, roots.clone()));
            Ok((out.to_wire(), r))
        }
        "then" => {
            let xs: Vec<i64> = decode(input, case)?;
            let prog = cases::then_case(degree);
            let (out, r) = receipted(&xs, || pool.run(&prog, &xs[..]));
            Ok((out.to_wire(), r))
        }
        "itermem" => {
            let frames: Vec<i64> = decode(input, case)?;
            let prog = cases::itermem_case(degree);
            let (out, r) = receipted(&frames, || pool.run(&prog, frames.clone()));
            Ok((out.to_wire(), r))
        }
        "itermem_df" => {
            let frames: Vec<Vec<i64>> = decode(input, case)?;
            let prog = cases::itermem_df_case(degree);
            let (out, r) = receipted(&frames, || pool.run(&prog, frames.clone()));
            Ok((out.to_wire(), r))
        }
        "itermem_tf" => {
            let frames: Vec<Vec<u64>> = decode(input, case)?;
            let prog = cases::itermem_tf_case(degree);
            let (out, r) = receipted(&frames, || pool.run(&prog, frames.clone()));
            Ok((out.to_wire(), r))
        }
        "nested_loop" => {
            let bursts: Vec<Vec<i64>> = decode(input, case)?;
            let prog = cases::nested_loop_case(degree);
            let (out, r) = receipted(&bursts, || pool.run(&prog, bursts.clone()));
            Ok((out.to_wire(), r))
        }
        "itermem_then" => {
            let frames: Vec<i64> = decode(input, case)?;
            let prog = cases::itermem_then_case(degree);
            let (out, r) = receipted(&frames, || pool.run(&prog, frames.clone()));
            Ok((out.to_wire(), r))
        }
        other => Err(format!("unknown case `{other}`")),
    }
}

/// Parallel in-order map of the `df` case's compute function over this
/// worker's item chunk (the map half of the dist farm; the fold happens
/// at the master, in global item order): up to `degree` pool jobs, each
/// filling one contiguous block of the pre-sized output.
fn map_df_chunk(pool: &PoolBackend, degree: usize, items: &[i64]) -> Vec<i64> {
    let prog = crate::conformance::df_case(degree);
    let comp = prog.compute_fn();
    let mut out = vec![0i64; items.len()];
    if items.is_empty() {
        return out;
    }
    let block = items.len().div_ceil(degree.max(1));
    pool.pool().scope(|ps| {
        for (src, dst) in items.chunks(block).zip(out.chunks_mut(block)) {
            ps.spawn(move || {
                for (x, o) in src.iter().zip(dst) {
                    *o = comp(x);
                }
            });
        }
    });
    out
}

/// The fields `(id, degree, items)` of a well-formed `map-df` request
/// for the `df` case, read off the frame with typed reads. `None` for
/// any other message, which the worker decodes whole instead (that path
/// also answers a malformed `map-df`). Each read returns early on a
/// shape mismatch, so the cursor always sits where a whole-document
/// decode would, and a defect is the same [`wire::WireError`] it would
/// report.
fn map_df_request(mut doc: Cursor<'_>) -> Result<Option<(i64, i64, Vec<i64>)>, wire::WireError> {
    if doc.tuple()? != Some(5) || doc.str()? != Some("map-df") {
        return Ok(None);
    }
    let Some(id) = doc.int()? else {
        return Ok(None);
    };
    if doc.str()? != Some("df") {
        return Ok(None);
    }
    let Some(degree) = doc.int()? else {
        return Ok(None);
    };
    let Some(items) = doc.ints()? else {
        return Ok(None);
    };
    doc.finish()?;
    Ok(Some((id, degree, items)))
}

/// The worker's half of the dist protocol, generic over the transport
/// so it is unit-testable in-process over byte channels. Serves the
/// handshake, then jobs, until `shutdown` (answered with `bye`) or a
/// clean master hang-up. A version-mismatched `hello` is answered with
/// a pinned error and the connection is closed.
pub fn serve_connection<R: Read, W: Write>(mut input: R, mut output: W) -> io::Result<()> {
    // Handshake first: nothing is served to a peer speaking another
    // wire version.
    match wire::read_frame(&mut input)? {
        Some(v) => match head_of(&v) {
            Some(("hello", [WireValue::Int(version)])) => {
                if *version != i64::from(wire::VERSION) {
                    let msg = format!(
                        "wire version mismatch: got {version}, want {}",
                        wire::VERSION
                    );
                    wire::write_frame(
                        &mut output,
                        &WireValue::Tuple(vec![s("err"), WireValue::Int(-1), s(&msg)]),
                    )?;
                    return Ok(());
                }
                let pool = PoolBackend::new();
                wire::write_frame(
                    &mut output,
                    &WireValue::Tuple(vec![
                        s("hello-ack"),
                        WireValue::Int(i64::from(wire::VERSION)),
                        WireValue::Int(pool.threads() as i64),
                    ]),
                )?;
                serve_jobs(pool, input, output)
            }
            _ => {
                wire::write_frame(
                    &mut output,
                    &WireValue::Tuple(vec![
                        s("err"),
                        WireValue::Int(-1),
                        s("expected a hello message"),
                    ]),
                )?;
                Ok(())
            }
        },
        None => Ok(()),
    }
}

fn serve_jobs<R: Read, W: Write>(pool: PoolBackend, mut input: R, mut output: W) -> io::Result<()> {
    // One frame buffer and one reply-encoding buffer for the
    // connection's lifetime: neither allocates per job once grown.
    let (mut frame, mut scratch) = (Vec::new(), Vec::new());
    loop {
        let Some(doc) = wire::read_frame_into(&mut input, &mut frame)? else {
            // The master hung up without a shutdown; treat as orderly.
            return Ok(());
        };
        if let Some((id, degree, items)) = map_df_request(doc.clone())? {
            let outs = map_df_chunk(&pool, degree as usize, &items);
            wire::write_frame_with(&mut output, &mut scratch, |e| {
                e.tuple(3);
                e.str("map-ok");
                e.int(id);
                e.ints(outs.iter().copied());
            })?;
            continue;
        }
        let msg = doc.into_value()?;
        let reply = match head_of(&msg) {
            Some(("shutdown", _)) => {
                wire::write_frame_with(&mut output, &mut scratch, |e| {
                    e.value(&WireValue::Tuple(vec![s("bye")]))
                })?;
                return Ok(());
            }
            Some((
                "job",
                [WireValue::Int(id), WireValue::Str(case), WireValue::Int(degree), input_value],
            )) => match run_catalog(&pool, case, *degree as usize, input_value) {
                Ok((out, receipt)) => {
                    WireValue::Tuple(vec![s("ok"), WireValue::Int(*id), out, receipt.to_wire()])
                }
                Err(e) => WireValue::Tuple(vec![s("err"), WireValue::Int(*id), s(&e)]),
            },
            // A well-formed `df` chunk took the typed path above; what
            // reaches here is a wrong case or a non-`Int` item list.
            Some(("map-df", [WireValue::Int(id), WireValue::Str(case), WireValue::Int(_), _])) => {
                let msg = if case == "df" {
                    "malformed input for case `df`".to_string()
                } else {
                    format!("unknown case `{case}`")
                };
                WireValue::Tuple(vec![s("err"), WireValue::Int(*id), s(&msg)])
            }
            _ => WireValue::Tuple(vec![s("err"), WireValue::Int(-1), s("unexpected message")]),
        };
        wire::write_frame_with(&mut output, &mut scratch, |e| e.value(&reply))?;
    }
}

// ---------------------------------------------------------------------------
// The master side
// ---------------------------------------------------------------------------

struct WorkerLink {
    child: Child,
    tx: ChildStdin,
    rx: BufReader<ChildStdout>,
    /// Worker-reported pool size, from the handshake.
    threads: usize,
    /// Reused frame-encoding buffer: steady-state sends on this link
    /// allocate nothing once it has grown to the working frame size.
    scratch: Vec<u8>,
    /// Reused frame-reading buffer, likewise for replies.
    frame: Vec<u8>,
}

struct MasterState {
    workers: Vec<WorkerLink>,
    next_id: i64,
    /// The last farm round's plan (see [`RoundPlan`]); rebuilt only when
    /// the item count or the fleet size changes.
    plan: Option<RoundPlan>,
}

/// The data-independent half of a [`DistBackend::run_df_sharded`] farm
/// round. An item's partition is a pure function of its index, so the
/// routing and the canonical trace are fixed by the item count and the
/// fleet size: the master plans them once and reuses the plan for every
/// frame of that shape.
struct RoundPlan {
    items: usize,
    /// The indices of the items each worker maps, in item order (worker
    /// `w` gets item `i` when [`partition`]`(i) % workers == w`).
    by_worker: Vec<Vec<usize>>,
    /// The hash of the round's `Assign` events, as [`Trace::hash`] folds
    /// them.
    ///
    /// [`Trace::hash`]: crate::receipt::Trace::hash
    trace_hash: u64,
}

impl RoundPlan {
    fn new(items: usize, workers: usize) -> Self {
        let mut by_worker = vec![Vec::new(); workers];
        let mut trace = WordHasher::new();
        for seq in 0..items as u64 {
            let part = partition(seq);
            TraceEvent::Assign { seq, part }.hash_into(&mut trace);
            by_worker[(part % workers as u64) as usize].push(seq as usize);
        }
        RoundPlan {
            items,
            by_worker,
            trace_hash: trace.finish(),
        }
    }

    fn fits(&self, items: usize, workers: usize) -> bool {
        self.items == items && self.by_worker.len() == workers
    }
}

/// The typed error for a call on a fleet that [`DistBackend::shutdown`]
/// has already emptied.
fn shut_down() -> DistError {
    DistError::Protocol("fleet is shut down".into())
}

/// The master of a fleet of worker **processes** speaking the canonical
/// wire protocol over stdin/stdout pipes. Jobs name programs from the
/// conformance catalog (closures cannot cross a process boundary);
/// whole runs are routed to one worker by input hash, and
/// [`DistBackend::run_df_sharded`] spreads a farm's items across every
/// worker. Every result carries the worker's [`RunReceipt`], which the
/// master checks against its own canonical input hash.
///
/// Dropping the backend shuts the fleet down best-effort; call
/// [`DistBackend::shutdown`] for a checked orderly exit.
pub struct DistBackend {
    inner: Mutex<MasterState>,
}

impl std::fmt::Debug for DistBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.lock().map(|m| m.workers.len()).unwrap_or(0);
        f.debug_struct("DistBackend").field("workers", &n).finish()
    }
}

/// The next reply on `link`, as a cursor over its frame.
fn reply_doc(link: &mut WorkerLink) -> Result<Cursor<'_>, DistError> {
    wire::read_frame_into(&mut link.rx, &mut link.frame)?
        .ok_or_else(|| DistError::Protocol("worker hung up mid-conversation".into()))
}

fn read_reply(link: &mut WorkerLink) -> Result<WireValue, DistError> {
    Ok(reply_doc(link)?.into_value()?)
}

fn send(link: &mut WorkerLink, msg: &WireValue) -> Result<(), DistError> {
    wire::write_frame_with(&mut link.tx, &mut link.scratch, |e| e.value(msg))?;
    Ok(())
}

/// The fields `(id, outputs)` of a well-formed `map-ok` reply, read
/// with typed reads (see [`map_df_request`]); `None` for any other
/// reply.
fn map_ok_reply(mut doc: Cursor<'_>) -> Result<Option<(i64, Vec<i64>)>, wire::WireError> {
    if doc.tuple()? != Some(3) || doc.str()? != Some("map-ok") {
        return Ok(None);
    }
    let Some(id) = doc.int()? else {
        return Ok(None);
    };
    let Some(outs) = doc.ints()? else {
        return Ok(None);
    };
    doc.finish()?;
    Ok(Some((id, outs)))
}

impl DistBackend {
    /// Spawns `n` worker processes (at least 1), each from a fresh
    /// [`Command`] produced by `cmd`, and completes the version
    /// handshake with every one of them. The workers inherit the
    /// parent's environment, so `SKIPPER_WORKERS` sizes their local
    /// pools as it does everything else.
    pub fn spawn<F: FnMut() -> Command>(n: usize, mut cmd: F) -> Result<Self, DistError> {
        let n = n.max(1);
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let mut command = cmd();
            command
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            let mut child = command.spawn()?;
            let tx = child.stdin.take().expect("piped stdin");
            let rx = BufReader::new(child.stdout.take().expect("piped stdout"));
            let mut link = WorkerLink {
                child,
                tx,
                rx,
                threads: 0,
                scratch: Vec::new(),
                frame: Vec::new(),
            };
            send(
                &mut link,
                &WireValue::Tuple(vec![s("hello"), WireValue::Int(i64::from(wire::VERSION))]),
            )?;
            let reply = read_reply(&mut link)?;
            match head_of(&reply) {
                Some(("hello-ack", [WireValue::Int(v), WireValue::Int(threads)]))
                    if *v == i64::from(wire::VERSION) =>
                {
                    link.threads = *threads as usize;
                }
                Some(("err", [_, WireValue::Str(msg)])) => {
                    return Err(DistError::Handshake(msg.clone()));
                }
                _ => {
                    return Err(DistError::Handshake(format!(
                        "unexpected handshake reply: {reply:?}"
                    )));
                }
            }
            workers.push(link);
        }
        Ok(DistBackend {
            inner: Mutex::new(MasterState {
                workers,
                next_id: 0,
                plan: None,
            }),
        })
    }

    /// Number of worker processes in the fleet.
    pub fn n_workers(&self) -> usize {
        self.inner
            .lock()
            .expect("dist master poisoned")
            .workers
            .len()
    }

    /// Runs one whole catalog case on one worker (chosen by the input's
    /// canonical hash), returning the decoded-on-the-wire output and
    /// the worker's receipt. The worker's `input_hash` is verified
    /// against the master's own hash of the input it sent.
    pub fn run_case(
        &self,
        case: &str,
        degree: usize,
        input: &WireValue,
    ) -> Result<(WireValue, RunReceipt), DistError> {
        let mut master = self.inner.lock().expect("dist master poisoned");
        if master.workers.is_empty() {
            return Err(shut_down());
        }
        let id = master.next_id;
        master.next_id += 1;
        let expected_input_hash = wire_hash(input);
        let w = (expected_input_hash % master.workers.len() as u64) as usize;
        let link = &mut master.workers[w];
        send(
            link,
            &WireValue::Tuple(vec![
                s("job"),
                WireValue::Int(id),
                s(case),
                WireValue::Int(degree as i64),
                input.clone(),
            ]),
        )?;
        let reply = read_reply(link)?;
        match head_of(&reply) {
            Some(("ok", [WireValue::Int(rid), output, receipt_value])) => {
                if *rid != id {
                    return Err(DistError::Protocol(format!(
                        "reply id {rid} for request {id}"
                    )));
                }
                let receipt = RunReceipt::from_wire(receipt_value)
                    .ok_or_else(|| DistError::Protocol("malformed receipt".into()))?;
                if receipt.input_hash != expected_input_hash {
                    return Err(DistError::Protocol(format!(
                        "worker input hash {:#x} != master input hash {:#x}",
                        receipt.input_hash, expected_input_hash
                    )));
                }
                Ok((output.clone(), receipt))
            }
            Some(("err", [_, WireValue::Str(msg)])) => Err(DistError::Worker(msg.clone())),
            _ => Err(DistError::Protocol(format!("unexpected reply: {reply:?}"))),
        }
    }

    /// The genuinely distributed farm: the `df` case's items are
    /// spread over **all** worker processes (item `i` goes to partition
    /// [`partition`]`(i)`, partition `p` to worker `p % n`), each
    /// worker maps its chunk in parallel on its local pool, and the
    /// master folds the mapped outputs in global item order seeded with
    /// the case's init — so the result *and* the canonical trace equal
    /// every other backend's. Returns the fold plus the master-built
    /// receipt.
    ///
    /// Routing and trace depend only on the item count and the fleet
    /// size, so the master plans them once per item count: the
    /// per-worker index lists and the hash of the round's `Assign`
    /// events are kept and reused until a frame of another length
    /// arrives. Per frame the master sends the chunks, then streams the
    /// items' canonical bytes into the receipt's input hash while the
    /// workers compute, scatters the replies, folds, and hashes the
    /// output.
    pub fn run_df_sharded(
        &self,
        degree: usize,
        xs: &[i64],
    ) -> Result<(i64, RunReceipt), DistError> {
        let mut master = self.inner.lock().expect("dist master poisoned");
        let MasterState {
            workers,
            next_id,
            plan,
        } = &mut *master;
        if workers.is_empty() {
            return Err(shut_down());
        }
        // Feed any active receipt scope on this thread too: the master
        // is the dispatcher of the map, so it owns the canonical trace.
        crate::receipt::record_assigns(xs.len());
        let plan = match plan {
            Some(p) if p.fits(xs.len(), workers.len()) => p,
            stale => stale.insert(RoundPlan::new(xs.len(), workers.len())),
        };
        let id = *next_id;
        *next_id += 1;
        // Send every chunk first (the workers compute concurrently),
        // then collect the replies.
        let sent = || {
            plan.by_worker
                .iter()
                .enumerate()
                .filter(|(_, idxs)| !idxs.is_empty())
        };
        for (w, idxs) in sent() {
            let link = &mut workers[w];
            wire::write_frame_with(&mut link.tx, &mut link.scratch, |e| {
                e.tuple(5);
                e.str("map-df");
                e.int(id);
                e.str("df");
                e.int(degree as i64);
                e.ints(idxs.iter().map(|&i| xs[i]));
            })?;
        }
        // Hash the receipt's input while the workers compute.
        let input_hash = wire_hash(xs);
        let mut outs = vec![0i64; xs.len()];
        for (w, idxs) in sent() {
            let doc = reply_doc(&mut workers[w])?;
            match map_ok_reply(doc.clone())? {
                Some((rid, _)) if rid != id => {
                    return Err(DistError::Protocol(format!(
                        "reply id {rid} for request {id}"
                    )));
                }
                Some((_, got)) if got.len() != idxs.len() => {
                    return Err(DistError::Protocol(format!(
                        "worker {w} returned {} output(s) for {} item(s)",
                        got.len(),
                        idxs.len()
                    )));
                }
                Some((_, got)) => {
                    for (&i, o) in idxs.iter().zip(got) {
                        outs[i] = o;
                    }
                }
                None => {
                    let reply = doc.into_value()?;
                    return Err(match head_of(&reply) {
                        Some(("map-ok", [WireValue::Int(rid), _])) if *rid != id => {
                            DistError::Protocol(format!("reply id {rid} for request {id}"))
                        }
                        Some(("map-ok", [WireValue::Int(_), _])) => {
                            DistError::Protocol("malformed map-ok outputs".into())
                        }
                        Some(("err", [_, WireValue::Str(msg)])) => DistError::Worker(msg.clone()),
                        _ => DistError::Protocol(format!("unexpected reply: {reply:?}")),
                    });
                }
            }
        }
        let trace_hash = plan.trace_hash;
        drop(master);
        // Fold in item order, seeded with the case's init — exactly the
        // declarative semantics.
        let prog = crate::conformance::df_case(degree);
        let z = outs.into_iter().fold(*prog.init(), prog.acc_fn());
        let receipt = RunReceipt {
            input_hash,
            trace_hash,
            output_hash: wire_hash(&z),
        };
        Ok((z, receipt))
    }

    /// Orderly fleet shutdown: every worker gets a `shutdown`, must
    /// answer `bye`, and must exit successfully.
    pub fn shutdown(&self) -> Result<(), DistError> {
        let mut master = self.inner.lock().expect("dist master poisoned");
        for link in &mut master.workers {
            send(link, &WireValue::Tuple(vec![s("shutdown")]))?;
            let reply = read_reply(link)?;
            if head_of(&reply).map(|(h, _)| h) != Some("bye") {
                return Err(DistError::Protocol(format!("expected bye, got: {reply:?}")));
            }
        }
        for link in &mut master.workers {
            let status = link.child.wait()?;
            if !status.success() {
                return Err(DistError::Protocol(format!("worker exited with {status}")));
            }
        }
        master.workers.clear();
        master.plan = None;
        Ok(())
    }
}

impl Drop for DistBackend {
    fn drop(&mut self) {
        if let Ok(mut master) = self.inner.lock() {
            for link in &mut master.workers {
                let _ = wire::write_frame(&mut link.tx, &WireValue::Tuple(vec![s("shutdown")]));
                let _ = link.child.kill();
                let _ = link.child.wait();
            }
            master.workers.clear();
        }
    }
}

// ---------------------------------------------------------------------------
// DistBackend as a conformance harness
// ---------------------------------------------------------------------------

use crate::conformance::{
    ConformanceHarness, DfProg, LoopDfProg, LoopProg, LoopTfProg, LoopThenProg, NestedLoopProg,
    ReceiptHarness, ScmProg, TfProg, ThenProg,
};

/// Ships one catalog job to the fleet and decodes the reply, panicking
/// on any protocol or worker error (failing to execute a conformance
/// case *is* a conformance failure).
macro_rules! dist_job {
    ($self:ident, $case:literal, $degree:expr, $input:expr, $out:ty) => {{
        let (out, receipt) = $self
            .run_case($case, $degree, &$input.to_wire())
            .unwrap_or_else(|e| panic!("dist case `{}` failed: {e}", $case));
        let decoded =
            <$out as FromWire>::from_wire(&out).expect("dist worker output decodes on the wire");
        (decoded, receipt)
    }};
}

/// The process-level harness: every case is shipped over the wire to a
/// worker process (whole runs routed by input hash; `df` spread over the
/// whole fleet via [`DistBackend::run_df_sharded`]). The *prepared*
/// variants loop over the inputs on the same fleet — the persistent
/// worker processes **are** the prepared state.
impl ConformanceHarness for DistBackend {
    fn name(&self) -> String {
        format!("DistBackend({} workers)", self.n_workers())
    }

    fn run_df(&self, prog: &DfProg, xs: &[i64]) -> i64 {
        self.run_df_sharded(prog.workers(), xs)
            .unwrap_or_else(|e| panic!("dist case `df` failed: {e}"))
            .0
    }

    fn run_scm(&self, prog: &ScmProg, input: &Vec<i64>) -> Vec<i64> {
        dist_job!(self, "scm", prog.workers(), input, Vec<i64>).0
    }

    fn run_tf(&self, prog: &TfProg, roots: Vec<u64>) -> u64 {
        dist_job!(self, "tf", prog.workers(), &roots, u64).0
    }

    fn run_then(&self, prog: &ThenProg, xs: &[i64]) -> (i64, i64) {
        dist_job!(
            self,
            "then",
            prog.first().workers(),
            &xs.to_vec(),
            (i64, i64)
        )
        .0
    }

    fn run_itermem(&self, prog: &LoopProg, frames: Vec<i64>) -> (i64, Vec<i64>) {
        dist_job!(
            self,
            "itermem",
            prog.body().workers(),
            &frames,
            (i64, Vec<i64>)
        )
        .0
    }

    fn run_itermem_df(&self, prog: &LoopDfProg, frames: Vec<Vec<i64>>) -> (i64, Vec<i64>) {
        dist_job!(
            self,
            "itermem_df",
            prog.body().workers(),
            &frames,
            (i64, Vec<i64>)
        )
        .0
    }

    fn run_itermem_tf(&self, prog: &LoopTfProg, frames: Vec<Vec<u64>>) -> (u64, Vec<u64>) {
        dist_job!(
            self,
            "itermem_tf",
            prog.body().workers(),
            &frames,
            (u64, Vec<u64>)
        )
        .0
    }

    fn run_nested_loop(
        &self,
        prog: &NestedLoopProg,
        bursts: Vec<Vec<i64>>,
    ) -> (i64, Vec<Vec<i64>>) {
        dist_job!(
            self,
            "nested_loop",
            prog.body().body().workers(),
            &bursts,
            (i64, Vec<Vec<i64>>)
        )
        .0
    }

    fn run_itermem_then(&self, prog: &LoopThenProg, frames: Vec<i64>) -> (i64, Vec<i64>) {
        dist_job!(
            self,
            "itermem_then",
            prog.body().first().workers(),
            &frames,
            (i64, Vec<i64>)
        )
        .0
    }

    fn run_df_prepared(&self, prog: &DfProg, runs: &[Vec<i64>]) -> Vec<i64> {
        runs.iter().map(|xs| self.run_df(prog, xs)).collect()
    }

    fn run_scm_prepared(&self, prog: &ScmProg, runs: &[Vec<i64>]) -> Vec<Vec<i64>> {
        runs.iter().map(|xs| self.run_scm(prog, xs)).collect()
    }

    fn run_tf_prepared(&self, prog: &TfProg, runs: &[Vec<u64>]) -> Vec<u64> {
        runs.iter().map(|r| self.run_tf(prog, r.clone())).collect()
    }

    fn run_then_prepared(&self, prog: &ThenProg, runs: &[Vec<i64>]) -> Vec<(i64, i64)> {
        runs.iter().map(|xs| self.run_then(prog, xs)).collect()
    }

    fn run_itermem_prepared(&self, prog: &LoopProg, runs: &[Vec<i64>]) -> Vec<(i64, Vec<i64>)> {
        runs.iter()
            .map(|f| self.run_itermem(prog, f.clone()))
            .collect()
    }

    fn run_itermem_df_prepared(
        &self,
        prog: &LoopDfProg,
        runs: &[Vec<Vec<i64>>],
    ) -> Vec<(i64, Vec<i64>)> {
        runs.iter()
            .map(|f| self.run_itermem_df(prog, f.clone()))
            .collect()
    }

    fn run_itermem_tf_prepared(
        &self,
        prog: &LoopTfProg,
        runs: &[Vec<Vec<u64>>],
    ) -> Vec<(u64, Vec<u64>)> {
        runs.iter()
            .map(|f| self.run_itermem_tf(prog, f.clone()))
            .collect()
    }

    fn run_nested_loop_prepared(
        &self,
        prog: &NestedLoopProg,
        runs: &[Vec<Vec<i64>>],
    ) -> Vec<(i64, Vec<Vec<i64>>)> {
        runs.iter()
            .map(|b| self.run_nested_loop(prog, b.clone()))
            .collect()
    }

    fn run_itermem_then_prepared(
        &self,
        prog: &LoopThenProg,
        runs: &[Vec<i64>],
    ) -> Vec<(i64, Vec<i64>)> {
        runs.iter()
            .map(|f| self.run_itermem_then(prog, f.clone()))
            .collect()
    }
}

/// The receipt axis, distributed: instead of wrapping the run in a
/// master-side receipt scope, every override returns the receipt the
/// worker **process** computed — equality with an in-process backend's
/// receipt is then a genuine cross-process schedule-and-output check.
impl ReceiptHarness for DistBackend {
    fn receipt_df(&self, prog: &DfProg, xs: &[i64]) -> (i64, RunReceipt) {
        self.run_df_sharded(prog.workers(), xs)
            .unwrap_or_else(|e| panic!("dist case `df` failed: {e}"))
    }

    fn receipt_scm(&self, prog: &ScmProg, input: &Vec<i64>) -> (Vec<i64>, RunReceipt) {
        dist_job!(self, "scm", prog.workers(), input, Vec<i64>)
    }

    fn receipt_tf(&self, prog: &TfProg, roots: Vec<u64>) -> (u64, RunReceipt) {
        dist_job!(self, "tf", prog.workers(), &roots, u64)
    }

    fn receipt_then(&self, prog: &ThenProg, xs: &[i64]) -> ((i64, i64), RunReceipt) {
        dist_job!(
            self,
            "then",
            prog.first().workers(),
            &xs.to_vec(),
            (i64, i64)
        )
    }

    fn receipt_itermem(&self, prog: &LoopProg, frames: Vec<i64>) -> ((i64, Vec<i64>), RunReceipt) {
        dist_job!(
            self,
            "itermem",
            prog.body().workers(),
            &frames,
            (i64, Vec<i64>)
        )
    }

    fn receipt_itermem_df(
        &self,
        prog: &LoopDfProg,
        frames: Vec<Vec<i64>>,
    ) -> ((i64, Vec<i64>), RunReceipt) {
        dist_job!(
            self,
            "itermem_df",
            prog.body().workers(),
            &frames,
            (i64, Vec<i64>)
        )
    }

    fn receipt_itermem_tf(
        &self,
        prog: &LoopTfProg,
        frames: Vec<Vec<u64>>,
    ) -> ((u64, Vec<u64>), RunReceipt) {
        dist_job!(
            self,
            "itermem_tf",
            prog.body().workers(),
            &frames,
            (u64, Vec<u64>)
        )
    }

    fn receipt_nested_loop(
        &self,
        prog: &NestedLoopProg,
        bursts: Vec<Vec<i64>>,
    ) -> ((i64, Vec<Vec<i64>>), RunReceipt) {
        dist_job!(
            self,
            "nested_loop",
            prog.body().body().workers(),
            &bursts,
            (i64, Vec<Vec<i64>>)
        )
    }

    fn receipt_itermem_then(
        &self,
        prog: &LoopThenProg,
        frames: Vec<i64>,
    ) -> ((i64, Vec<i64>), RunReceipt) {
        dist_job!(
            self,
            "itermem_then",
            prog.body().first().workers(),
            &frames,
            (i64, Vec<i64>)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, SeqBackend};
    use std::sync::mpsc;

    // -- an in-process duplex transport for exercising the protocol ----

    struct ChanReader {
        rx: mpsc::Receiver<Vec<u8>>,
        buf: Vec<u8>,
        pos: usize,
    }

    impl Read for ChanReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.buf.len() {
                match self.rx.recv() {
                    Ok(chunk) => {
                        self.buf = chunk;
                        self.pos = 0;
                    }
                    // Sender dropped: clean EOF.
                    Err(_) => return Ok(0),
                }
            }
            let n = out.len().min(self.buf.len() - self.pos);
            out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    struct ChanWriter {
        tx: mpsc::Sender<Vec<u8>>,
    }

    impl Write for ChanWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            // A dropped peer is a broken pipe, as on a real fd.
            self.tx
                .send(buf.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Spawns `serve_connection` on a thread over byte channels and
    /// returns the master's (writer, reader) half.
    fn in_process_worker() -> (
        ChanWriter,
        ChanReader,
        std::thread::JoinHandle<io::Result<()>>,
    ) {
        let (m2w_tx, m2w_rx) = mpsc::channel();
        let (w2m_tx, w2m_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            serve_connection(
                ChanReader {
                    rx: m2w_rx,
                    buf: Vec::new(),
                    pos: 0,
                },
                ChanWriter { tx: w2m_tx },
            )
        });
        (
            ChanWriter { tx: m2w_tx },
            ChanReader {
                rx: w2m_rx,
                buf: Vec::new(),
                pos: 0,
            },
            handle,
        )
    }

    fn hello(version: i64) -> WireValue {
        WireValue::Tuple(vec![s("hello"), WireValue::Int(version)])
    }

    // -- ShardBackend ---------------------------------------------------

    #[test]
    fn shard_backend_matches_seq_on_every_skeleton() {
        let farm = crate::df(3, |x: &i64| x * x, |z: i64, y| z + y, 1i64);
        let xs: Vec<i64> = (0..37).collect();
        let golden = SeqBackend.run(&farm, &xs[..]);
        for n_shards in [1, 2, 3, 5] {
            let backend = ShardBackend::new(n_shards);
            assert_eq!(backend.run(&farm, &xs[..]), golden, "{n_shards} shard(s)");
        }
    }

    #[test]
    fn shard_backend_clamps_zero_shards_to_one() {
        assert_eq!(ShardBackend::new(0).n_shards(), 1);
    }

    #[test]
    fn shard_clones_share_their_pools() {
        let a = ShardBackend::new(2);
        let b = a.clone();
        for (x, y) in a.shards().iter().zip(b.shards()) {
            assert!(Arc::ptr_eq(x, y));
        }
    }

    #[test]
    fn shard_receipts_equal_pool_receipts() {
        let farm = crate::df(2, |x: &i64| x * 7 - 1, |z: i64, y| z + y, 0i64);
        let xs: Vec<i64> = (0..25).collect();
        let pool = PoolBackend::new();
        let shard = ShardBackend::new(3);
        let (pool_out, pool_r) = receipted(&xs, || pool.run(&farm, &xs[..]));
        let (shard_out, shard_r) = receipted(&xs, || shard.run(&farm, &xs[..]));
        assert_eq!(pool_out, shard_out);
        assert_eq!(pool_r, shard_r);
    }

    // -- the wire protocol, in-process ---------------------------------

    #[test]
    fn worker_serves_a_job_after_the_handshake() {
        let (mut tx, mut rx, handle) = in_process_worker();
        wire::write_frame(&mut tx, &hello(i64::from(wire::VERSION))).unwrap();
        let ack = wire::read_frame(&mut rx).unwrap().unwrap();
        match head_of(&ack) {
            Some(("hello-ack", [WireValue::Int(v), WireValue::Int(threads)])) => {
                assert_eq!(*v, i64::from(wire::VERSION));
                assert!(*threads >= 1);
            }
            other => panic!("unexpected ack: {other:?}"),
        }
        // One scm job; the reply must carry the same output and receipt
        // as a local pooled run.
        let input: Vec<i64> = vec![4, 5, 6];
        let degree = 2usize;
        wire::write_frame(
            &mut tx,
            &WireValue::Tuple(vec![
                s("job"),
                WireValue::Int(7),
                s("scm"),
                WireValue::Int(degree as i64),
                input.to_wire(),
            ]),
        )
        .unwrap();
        let reply = wire::read_frame(&mut rx).unwrap().unwrap();
        let (out, receipt) = match head_of(&reply) {
            Some(("ok", [WireValue::Int(7), out, receipt])) => (
                <Vec<i64>>::from_wire(out).expect("output decodes"),
                RunReceipt::from_wire(receipt).expect("receipt decodes"),
            ),
            other => panic!("unexpected reply: {other:?}"),
        };
        let prog = crate::conformance::scm_case(degree);
        let local = PoolBackend::new();
        let (golden, golden_receipt) = receipted(&input, || local.run(&prog, &input));
        assert_eq!(out, golden);
        assert_eq!(receipt, golden_receipt);
        // Orderly shutdown.
        wire::write_frame(&mut tx, &WireValue::Tuple(vec![s("shutdown")])).unwrap();
        let bye = wire::read_frame(&mut rx).unwrap().unwrap();
        assert_eq!(head_of(&bye).map(|(h, _)| h), Some("bye"));
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn worker_refuses_a_version_mismatch_with_the_pinned_error() {
        let (mut tx, mut rx, handle) = in_process_worker();
        wire::write_frame(&mut tx, &hello(i64::from(wire::VERSION) + 1)).unwrap();
        let reply = wire::read_frame(&mut rx).unwrap().unwrap();
        match head_of(&reply) {
            Some(("err", [_, WireValue::Str(msg)])) => {
                assert_eq!(
                    msg,
                    &format!(
                        "wire version mismatch: got {}, want {}",
                        i64::from(wire::VERSION) + 1,
                        wire::VERSION
                    )
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        // The worker closes the connection after refusing.
        handle.join().unwrap().unwrap();
        assert!(wire::read_frame(&mut rx).unwrap().is_none());
    }

    #[test]
    fn worker_reports_unknown_cases_and_keeps_serving() {
        let (mut tx, mut rx, handle) = in_process_worker();
        wire::write_frame(&mut tx, &hello(i64::from(wire::VERSION))).unwrap();
        wire::read_frame(&mut rx).unwrap().unwrap();
        wire::write_frame(
            &mut tx,
            &WireValue::Tuple(vec![
                s("job"),
                WireValue::Int(1),
                s("warp"),
                WireValue::Int(2),
                WireValue::Unit,
            ]),
        )
        .unwrap();
        let reply = wire::read_frame(&mut rx).unwrap().unwrap();
        match head_of(&reply) {
            Some(("err", [WireValue::Int(1), WireValue::Str(msg)])) => {
                assert_eq!(msg, "unknown case `warp`");
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        // Still serving: a valid job goes through afterwards.
        wire::write_frame(
            &mut tx,
            &WireValue::Tuple(vec![
                s("job"),
                WireValue::Int(2),
                s("df"),
                WireValue::Int(2),
                vec![1i64, 2, 3].to_wire(),
            ]),
        )
        .unwrap();
        let reply = wire::read_frame(&mut rx).unwrap().unwrap();
        assert_eq!(head_of(&reply).map(|(h, _)| h), Some("ok"));
        drop(tx);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn worker_maps_df_chunks_in_item_order() {
        let (mut tx, mut rx, handle) = in_process_worker();
        wire::write_frame(&mut tx, &hello(i64::from(wire::VERSION))).unwrap();
        wire::read_frame(&mut rx).unwrap().unwrap();
        let items: Vec<i64> = vec![3, -1, 10, 0];
        wire::write_frame(
            &mut tx,
            &WireValue::Tuple(vec![
                s("map-df"),
                WireValue::Int(9),
                s("df"),
                WireValue::Int(2),
                items.to_wire(),
            ]),
        )
        .unwrap();
        let reply = wire::read_frame(&mut rx).unwrap().unwrap();
        let outs = match head_of(&reply) {
            Some(("map-ok", [WireValue::Int(9), outs])) => {
                <Vec<i64>>::from_wire(outs).expect("outputs decode")
            }
            other => panic!("unexpected reply: {other:?}"),
        };
        let prog = crate::conformance::df_case(2);
        let expected: Vec<i64> = items.iter().map(|x| (prog.compute_fn())(x)).collect();
        assert_eq!(outs, expected);
        drop(tx);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn worker_answers_a_non_int_map_df_list_as_malformed_and_keeps_serving() {
        let (mut tx, mut rx, handle) = in_process_worker();
        wire::write_frame(&mut tx, &hello(i64::from(wire::VERSION))).unwrap();
        wire::read_frame(&mut rx).unwrap().unwrap();
        let map_df = |id: i64, items: WireValue| {
            WireValue::Tuple(vec![
                s("map-df"),
                WireValue::Int(id),
                s("df"),
                WireValue::Int(2),
                items,
            ])
        };
        let bad = WireValue::List(vec![WireValue::Int(1), s("two"), WireValue::Int(3)]);
        wire::write_frame(&mut tx, &map_df(4, bad)).unwrap();
        let reply = wire::read_frame(&mut rx).unwrap().unwrap();
        match head_of(&reply) {
            Some(("err", [WireValue::Int(4), WireValue::Str(msg)])) => {
                assert_eq!(msg, "malformed input for case `df`");
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        wire::write_frame(&mut tx, &map_df(5, vec![1i64, 2, 3].to_wire())).unwrap();
        let reply = wire::read_frame(&mut rx).unwrap().unwrap();
        assert_eq!(head_of(&reply).map(|(h, _)| h), Some("map-ok"));
        drop(tx);
        handle.join().unwrap().unwrap();
    }

    /// Every truncation and every single-byte mutation of a valid
    /// `map-df` request and `map-ok` reply reads without a panic, and the
    /// typed reads agree with a whole-document decode: the same
    /// [`wire::WireError`] for a defect they meet, the same fields for a
    /// well-formed message of the expected shape.
    #[test]
    fn typed_map_reads_agree_with_decode_under_every_corruption() {
        let request = wire::encode_document(&WireValue::Tuple(vec![
            s("map-df"),
            WireValue::Int(7),
            s("df"),
            WireValue::Int(2),
            vec![3i64, -1, i64::MIN].to_wire(),
        ]));
        let reply = wire::encode_document(&WireValue::Tuple(vec![
            s("map-ok"),
            WireValue::Int(7),
            vec![9i64, 1, i64::MAX].to_wire(),
        ]));
        // A typed read either agrees with the whole-document decode or
        // declines (`Ok(None)`), and the peer then falls back to it.
        fn check(bytes: &[u8]) {
            let decoded = wire::decode_document(bytes);
            match Cursor::document(bytes).and_then(map_df_request) {
                Err(e) => assert_eq!(decoded, Err(e), "request {bytes:?}"),
                Ok(Some((id, degree, items))) => {
                    let want = WireValue::Tuple(vec![
                        s("map-df"),
                        WireValue::Int(id),
                        s("df"),
                        WireValue::Int(degree),
                        items.to_wire(),
                    ]);
                    assert_eq!(decoded, Ok(want), "request {bytes:?}");
                }
                Ok(None) => {}
            }
            match Cursor::document(bytes).and_then(map_ok_reply) {
                Err(e) => assert_eq!(decoded, Err(e), "reply {bytes:?}"),
                Ok(Some((id, outs))) => {
                    let want =
                        WireValue::Tuple(vec![s("map-ok"), WireValue::Int(id), outs.to_wire()]);
                    assert_eq!(decoded, Ok(want), "reply {bytes:?}");
                }
                Ok(None) => {}
            }
        }
        let (mut requests, mut replies) = (0, 0);
        for doc in [&request, &reply] {
            for cut in 0..doc.len() {
                check(&doc[..cut]);
            }
            for at in 0..doc.len() {
                for byte in 0..=u8::MAX {
                    let mut bytes = doc.clone();
                    bytes[at] = byte;
                    check(&bytes);
                    let fields = Cursor::document(&bytes).and_then(map_df_request);
                    requests += usize::from(matches!(fields, Ok(Some(_))));
                    let fields = Cursor::document(&bytes).and_then(map_ok_reply);
                    replies += usize::from(matches!(fields, Ok(Some(_))));
                }
            }
        }
        assert!(requests > 0 && replies > 0, "some mutants stay well-formed");
    }

    #[test]
    fn dist_error_displays_are_pinned() {
        assert_eq!(
            DistError::Handshake("wire version mismatch: got 2, want 1".into()).to_string(),
            "dist handshake failed: wire version mismatch: got 2, want 1"
        );
        assert_eq!(
            DistError::Protocol("expected bye".into()).to_string(),
            "dist protocol violation: expected bye"
        );
        assert_eq!(
            DistError::Worker("unknown case `warp`".into()).to_string(),
            "dist worker error: unknown case `warp`"
        );
        assert_eq!(
            shut_down().to_string(),
            "dist protocol violation: fleet is shut down"
        );
    }

    #[test]
    fn a_round_plan_is_the_canonical_trace_and_partition_routing() {
        use crate::receipt::Trace;
        for n in [0usize, 1, 63, 64, 65, 4096] {
            let events = (0..n as u64)
                .map(|seq| TraceEvent::Assign {
                    seq,
                    part: partition(seq),
                })
                .collect();
            let trace_hash = Trace { events }.hash();
            for workers in 1..=3 {
                let plan = RoundPlan::new(n, workers);
                assert!(plan.fits(n, workers) && !plan.fits(n + 1, workers));
                assert!(!plan.fits(n, workers + 1));
                assert_eq!(plan.trace_hash, trace_hash, "{n} item(s)");
                let mut by_worker = vec![Vec::new(); workers];
                for i in 0..n {
                    by_worker[(partition(i as u64) % workers as u64) as usize].push(i);
                }
                assert_eq!(
                    plan.by_worker, by_worker,
                    "{n} item(s), {workers} worker(s)"
                );
            }
        }
    }
}
