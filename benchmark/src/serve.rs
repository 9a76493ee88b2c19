//! The `serve-mixed` workload: a spawned `hjsvd serve` driven by closed-loop
//! connections, one thread each, mixing single jobs and bulk jobs.

use crate::chain::{self, ChainSolve};
use crate::check;
use crate::fingerprint::nproc;
use crate::library::{chain_reproduces, input_seed, layer_metrics, Solved, MIN_REQUESTS};
use crate::metrics::{self, metric};
use crate::report::{Metric, Report, Tally};
use crate::stats::{mean, median};
use hj_core::{BatchDriver, BatchWorkspace, HestenesSvd, OrderingKind, SvdOptions, SweepWorkspace};
use hj_matrix::{gen, Matrix};
use hj_serve::protocol::{BatchItem, Frame, NO_DEADLINE};
use hj_serve::{Client, ClientError, Priority, SubmitOptions};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Every `BULK_EVERY`-th request on a connection is a bulk job. The value is
/// an assumption, taken from no source or requirement; with 64-matrix bulk
/// jobs it makes about nine in ten solved matrices bulk. Each run prints the
/// measured class mix (see [`ClassMix`]).
pub const BULK_EVERY: usize = 8;
/// Distinct single-job inputs.
pub const SINGLE_POOL: usize = 16;
/// Distinct bulk payloads.
pub const BULK_POOL: usize = 4;
/// Matrices per bulk job.
pub const BULK_SIZE: usize = 64;
/// Shape of a single job's matrix (interactive class).
pub const SINGLE_SHAPE: (usize, usize) = (64, 32);
/// Shape of each matrix of a bulk job (batch class, SoA engine).
pub const BULK_SHAPE: (usize, usize) = (32, 16);
/// Server spawns timed for `setup_s` (the median is reported).
pub const SETUPS: usize = 7;

/// How long the server may drain in-flight jobs on shutdown.
const DRAIN: Duration = Duration::from_secs(10);
/// How long the server process may take to exit after its shutdown reply.
const EXIT_WAIT: Duration = Duration::from_secs(20);

/// A running `hjsvd serve` child whose stdout and stderr are drained by
/// threads until it exits (a server whose stdout reader is gone panics on
/// its final print). Dropping it without [`ServeHarness::shutdown`] kills
/// the child and waits for it.
#[derive(Debug)]
pub struct ServeHarness {
    child: Child,
    addr: String,
    stdout: Option<JoinHandle<Vec<String>>>,
    stderr: Option<JoinHandle<String>>,
    exited: bool,
}

/// How a server ended.
#[derive(Debug, Clone, Default)]
pub struct ShutdownReport {
    /// Stats JSON the shutdown request returned.
    pub final_stats: String,
    /// Exit status, if the process exited on its own in time.
    pub status: Option<ExitStatus>,
    /// Lines the server printed after its `listening on` line.
    pub stdout: Vec<String>,
    /// Everything the server printed on stderr.
    pub stderr: String,
}

impl ShutdownReport {
    /// Clean: the shutdown request was answered, the process exited with
    /// status 0, its stdout was drained to the final stats line and it
    /// reported no panic.
    pub fn check(&self) -> Result<(), String> {
        let exited_ok = self.status.is_some_and(|s| s.success());
        let printed_stats = self.stdout.iter().any(|l| l.contains("hjsvd-serve-stats/v1"));
        if !self.final_stats.is_empty()
            && exited_ok
            && printed_stats
            && !self.stderr.contains("panicked")
        {
            Ok(())
        } else {
            Err(format!(
                "unclean server exit: status {:?}, final stats printed {printed_stats}, stderr {:?}",
                self.status,
                self.stderr.trim()
            ))
        }
    }
}

impl ServeHarness {
    /// Spawn `bin serve --addr 127.0.0.1:0 --workers <workers>` and read the
    /// address from its `listening on` line.
    pub fn spawn(bin: &Path, workers: usize) -> Result<ServeHarness, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stderr = child.stderr.take().expect("stderr is piped");
        let stderr = thread::spawn(move || {
            let mut text = String::new();
            // A read error only truncates the captured text.
            let _ = BufReader::new(stderr).read_to_string(&mut text);
            text
        });
        let mut reader = BufReader::new(stdout);
        let mut first = String::new();
        let read = reader.read_line(&mut first);
        let stdout = thread::spawn(move || reader.lines().map_while(Result::ok).collect());
        let addr = first.trim().strip_prefix("listening on ").map(str::to_string);
        let harness = ServeHarness {
            child,
            addr: addr.clone().unwrap_or_default(),
            stdout: Some(stdout),
            stderr: Some(stderr),
            exited: false,
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(harness),
            _ => Err(format!("server printed no listening line (got {first:?})")),
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Ask the server to drain and stop, wait for it to exit (killing it
    /// after [`EXIT_WAIT`]) and collect what it printed.
    pub fn shutdown(mut self) -> ShutdownReport {
        let final_stats = Client::connect(self.addr.as_str())
            .map_err(ClientError::Io)
            .and_then(|mut c| c.shutdown(DRAIN))
            .unwrap_or_default();
        let status = self.wait_exit();
        let (stdout, stderr) = self.join_drains();
        ShutdownReport { final_stats, status, stdout, stderr }
    }

    /// Wait up to [`EXIT_WAIT`] for the child; kill it after that.
    fn wait_exit(&mut self) -> Option<ExitStatus> {
        let deadline = Instant::now() + EXIT_WAIT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                _ => {
                    // Killing an exited child fails harmlessly; wait reaps it.
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        self.exited = true;
        status
    }

    fn join_drains(&mut self) -> (Vec<String>, String) {
        let stdout = self.stdout.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default();
        let stderr = self.stderr.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default();
        (stdout, stderr)
    }
}

impl Drop for ServeHarness {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.join_drains();
        }
    }
}

/// The seeded inputs and their local results (what the remote spectra must
/// equal bit for bit).
#[derive(Debug, Clone)]
pub struct Payloads {
    /// Single-job matrices.
    pub singles: Vec<Matrix>,
    /// Local `singular_values` of each single.
    pub single_local: Vec<Vec<f64>>,
    /// Bulk payloads.
    pub bulks: Vec<Vec<Matrix>>,
    /// Local `singular_values_batch` of each bulk payload, per slot.
    pub bulk_local: Vec<Vec<Vec<f64>>>,
}

impl Payloads {
    /// Generate the inputs from `seed`, solve them locally and check the
    /// local spectra against the Householder reference (one operation each).
    pub fn generate(seed: u64, tally: &mut Tally) -> Result<Payloads, String> {
        let solver = HestenesSvd::new(SvdOptions::default());
        let (m, n) = SINGLE_SHAPE;
        let singles: Vec<Matrix> =
            (0..SINGLE_POOL).map(|i| gen::uniform(m, n, input_seed(seed, i))).collect();
        let (bm, bn) = BULK_SHAPE;
        let bulks: Vec<Vec<Matrix>> = (0..BULK_POOL)
            .map(|b| {
                (0..BULK_SIZE)
                    .map(|j| gen::uniform(bm, bn, input_seed(seed, 1000 + b * BULK_SIZE + j)))
                    .collect()
            })
            .collect();
        let mut single_local = Vec::with_capacity(SINGLE_POOL);
        for a in &singles {
            let values = solver.singular_values(a).map_err(|e| format!("local solve: {e}"))?.values;
            tally.record(check::spectrum_matches(&values, &check::reference_spectrum(a)?));
            single_local.push(values);
        }
        let mut bulk_local = Vec::with_capacity(BULK_POOL);
        for mats in &bulks {
            let mut slots = Vec::with_capacity(BULK_SIZE);
            for (a, r) in mats.iter().zip(solver.singular_values_batch(mats)) {
                let values = r.map_err(|e| format!("local batch solve: {e}"))?.values;
                tally.record(check::spectrum_matches(&values, &check::reference_spectrum(a)?));
                slots.push(values);
            }
            bulk_local.push(slots);
        }
        Ok(Payloads { singles, single_local, bulks, bulk_local })
    }
}

/// One request of a connection's fixed sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A single job: index into [`Payloads::singles`].
    Single(usize),
    /// A bulk job: index into [`Payloads::bulks`].
    Bulk(usize),
}

/// Request `i` of connection `conn`.
pub fn request(conn: usize, i: usize) -> Request {
    if (i + 1).is_multiple_of(BULK_EVERY) {
        Request::Bulk((conn + i / BULK_EVERY) % BULK_POOL)
    } else {
        Request::Single((conn * 5 + i) % SINGLE_POOL)
    }
}

fn options(priority: Priority) -> SubmitOptions {
    SubmitOptions { priority, ..SubmitOptions::default() }
}

/// The remote slots of a bulk job equal the local ones bit for bit.
fn bulk_matches(items: &[Result<Vec<f64>, String>], local: &[Vec<f64>]) -> Result<(), String> {
    if items.len() != local.len() {
        return Err(format!("bulk job returned {} slots for {}", items.len(), local.len()));
    }
    for (slot, want) in items.iter().zip(local) {
        check::bit_identical("bulk slot", slot.as_ref().map_err(Clone::clone)?, want)?;
    }
    Ok(())
}

/// Samples of one connection (or all, merged).
#[derive(Debug, Default)]
struct ConnSamples {
    single: Vec<f64>,
    bulk: Vec<f64>,
    /// Matrices solved and checked, per class.
    single_matrices: u64,
    bulk_matrices: u64,
    tally: Tally,
}

impl ConnSamples {
    fn merge(&mut self, o: ConnSamples) {
        self.single.extend(o.single);
        self.bulk.extend(o.bulk);
        self.single_matrices += o.single_matrices;
        self.bulk_matrices += o.bulk_matrices;
        self.tally.merge(o.tally);
    }
}

/// Run `drive` on every connection in its own thread until `seconds` pass;
/// returns the merged samples and the wall time of the pass.
fn closed_loop<C: Send>(
    conns: &mut [C],
    seconds: f64,
    drive: impl Fn(&mut C, usize, Instant) -> ConnSamples + Sync,
) -> (ConnSamples, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let drive = &drive;
    let per_conn: Vec<ConnSamples> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || drive(conn, c, deadline)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut all = ConnSamples::default();
    for c in per_conn {
        all.merge(c);
    }
    (all, elapsed)
}

/// The wire load: each connection a blocking `Client`, latencies from
/// client-side timers, every reply checked after its timer stops.
fn drive_client(client: &mut Client, conn: usize, deadline: Instant, p: &Payloads) -> ConnSamples {
    let mut s = ConnSamples::default();
    let mut i = 0usize;
    while s.single.len() < MIN_REQUESTS || Instant::now() < deadline {
        let request = request(conn, i);
        let outcome = match request {
            Request::Single(k) => {
                let t = Instant::now();
                let r = client.submit(&p.singles[k], options(Priority::Interactive));
                s.single.push(t.elapsed().as_secs_f64());
                r.map(|o| vec![Ok(o.values)]).map(|v| (v, std::slice::from_ref(&p.single_local[k])))
            }
            Request::Bulk(k) => {
                let t = Instant::now();
                let r = client.submit_batch(&p.bulks[k], options(Priority::Batch));
                s.bulk.push(t.elapsed().as_secs_f64());
                r.map(|o| {
                    let items = o
                        .items
                        .into_iter()
                        .map(|it| it.map(|x| x.values).map_err(|f| f.kind))
                        .collect();
                    (items, p.bulk_local[k].as_slice())
                })
            }
        };
        let dead = matches!(outcome, Err(ClientError::Io(_) | ClientError::Protocol(_)));
        let checked = outcome.map_err(|e| e.to_string()).and_then(|(items, local)| {
            bulk_matches(&items, local)?;
            Ok(items.len() as u64)
        });
        if let Ok(solved) = checked {
            match request {
                Request::Single(_) => s.single_matrices += solved,
                Request::Bulk(_) => s.bulk_matrices += solved,
            }
        }
        s.tally.record(checked.map(drop));
        if dead {
            break;
        }
        i += 1;
    }
    s
}

fn submit_frame(priority: Priority, matrix: &Matrix) -> Frame {
    Frame::Submit {
        priority: priority.index() as u8,
        engine: 0,
        ordering: OrderingKind::default().index() as u8,
        deadline_ms: NO_DEADLINE,
        tenant: String::new(),
        matrix: matrix.clone(),
    }
}

fn submit_batch_frame(priority: Priority, matrices: &[Matrix]) -> Frame {
    Frame::SubmitBatch {
        priority: priority.index() as u8,
        engine: 0,
        ordering: OrderingKind::default().index() as u8,
        deadline_ms: NO_DEADLINE,
        tenant: String::new(),
        matrices: matrices.to_vec(),
    }
}

/// The four codec spans of one job class: the client encodes the submit
/// frame, the server decodes it, the server encodes the result frame and
/// the client decodes it.
#[derive(Debug, Default)]
pub struct CodecSpans {
    /// Client: `Frame::encode` of the submit frame.
    pub submit_encode: Vec<f64>,
    /// Server: `Frame::decode_payload` of the submit frame.
    pub submit_decode: Vec<f64>,
    /// Server: `Frame::encode` of the result frame.
    pub result_encode: Vec<f64>,
    /// Client: `Frame::decode_payload` of the result frame.
    pub result_decode: Vec<f64>,
}

/// Encode `frame` and decode it back, timing both; the decoded frame must
/// equal the original.
fn codec_pass(frame: &Frame, encode: &mut Vec<f64>, decode: &mut Vec<f64>) -> Result<(), String> {
    let (bytes, enc) = timed(|| frame.encode());
    let (decoded, dec) = timed(|| Frame::decode_payload(&bytes[4..]));
    encode.push(enc);
    decode.push(dec);
    match decoded {
        Ok(back) if back == *frame => Ok(()),
        Ok(_) => Err("frame changed through the codec".to_string()),
        Err(e) => Err(format!("decode: {e}")),
    }
}

/// In-process replays of the workload's payloads through the public layer
/// functions, outside any wire timer.
#[derive(Debug, Default)]
pub struct Replay {
    /// Traced chain solves of single payloads that reproduced the library.
    pub chain: Vec<ChainSolve>,
    /// `singular_values_with_workspace` on a warm workspace, as a worker
    /// runs it; one sample per replayed single job.
    pub single_solve: Vec<f64>,
    /// `BatchDriver::load`, per replayed bulk job.
    pub batch_load: Vec<f64>,
    /// `BatchDriver::sweep_to_convergence`, per replayed bulk job.
    pub batch_sweep: Vec<f64>,
    /// `BatchDriver::extract`, per replayed bulk job.
    pub batch_extract: Vec<f64>,
    /// The three batch spans summed, per replayed bulk job.
    pub batch_total: Vec<f64>,
    /// Lanes of each replayed bulk job.
    pub batch_lanes: Vec<f64>,
    /// Sweeps of the slowest lane of each replayed bulk job.
    pub batch_sweeps: Vec<f64>,
    /// Codec spans of single jobs.
    pub single_codec: CodecSpans,
    /// Codec spans of bulk jobs.
    pub bulk_codec: CodecSpans,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Replay request sequence 0 in process for `seconds` (and at least
/// [`MIN_REQUESTS`] single jobs and one bulk job): each single job through
/// the codec, a warm library solve and `chain_solve`, which must reproduce
/// the library call; each bulk job through the codec and the `BatchDriver`
/// steps. Every request is one operation in `tally`.
pub fn replay(
    p: &Payloads,
    seconds: f64,
    tally: &mut Tally,
    chain_solve: impl Fn(&Matrix) -> Result<ChainSolve, String>,
) -> Replay {
    let solver = HestenesSvd::new(SvdOptions::default());
    let driver = BatchDriver::new(&solver);
    let mut ws = SweepWorkspace::new();
    let mut bws = BatchWorkspace::new();
    let mut r = Replay::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while r.single_solve.len() < MIN_REQUESTS
        || r.batch_total.is_empty()
        || Instant::now() < deadline
    {
        match request(0, i) {
            Request::Single(k) => {
                let a = &p.singles[k];
                let codec = &mut r.single_codec;
                let submit = codec_pass(
                    &submit_frame(Priority::Interactive, a),
                    &mut codec.submit_encode,
                    &mut codec.submit_decode,
                );
                let (lib, solve_s) = timed(|| solver.singular_values_with_workspace(a, &mut ws));
                r.single_solve.push(solve_s);
                let chained = chain_solve(a);
                let outcome = submit.and_then(|()| {
                    let lib = lib.map_err(|e| format!("replay solve: {e}"))?;
                    check::bit_identical("replayed solve", &lib.values, &p.single_local[k])?;
                    let reply = Frame::Result {
                        job: i as u64,
                        sweeps: lib.stats.sweeps as u32,
                        values: lib.values.clone(),
                    };
                    codec_pass(&reply, &mut codec.result_encode, &mut codec.result_decode)?;
                    let c = chained?;
                    let solved = Solved {
                        values: lib.values,
                        factors: None,
                        sweeps: lib.stats.sweeps,
                        rotations_applied: lib.stats.rotations_applied,
                    };
                    chain_reproduces(&c, &solved)?;
                    r.chain.push(c);
                    Ok(())
                });
                tally.record(outcome);
            }
            Request::Bulk(k) => {
                let mats = &p.bulks[k];
                let codec = &mut r.bulk_codec;
                let submit = codec_pass(
                    &submit_batch_frame(Priority::Batch, mats),
                    &mut codec.submit_encode,
                    &mut codec.submit_decode,
                );
                let ((), load) = timed(|| driver.load(&mut bws, mats));
                let ((), sweep) = timed(|| driver.sweep_to_convergence(&mut bws));
                let (out, extract) = timed(|| driver.extract(&bws, mats));
                r.batch_load.push(load);
                r.batch_sweep.push(sweep);
                r.batch_extract.push(extract);
                r.batch_total.push(load + sweep + extract);
                r.batch_lanes.push(mats.len() as f64);
                r.batch_sweeps
                    .push(out.iter().flatten().map(|sv| sv.stats.sweeps).max().unwrap_or(0) as f64);
                let outcome = submit.and_then(|()| {
                    let items: Vec<Result<Vec<f64>, String>> = out
                        .iter()
                        .map(|x| x.as_ref().map(|sv| sv.values.clone()).map_err(|e| e.to_string()))
                        .collect();
                    bulk_matches(&items, &p.bulk_local[k])?;
                    let reply = Frame::BatchResult {
                        job: i as u64,
                        items: out
                            .into_iter()
                            .flatten()
                            .map(|sv| BatchItem::Ok {
                                sweeps: sv.stats.sweeps as u32,
                                values: sv.values,
                            })
                            .collect(),
                    };
                    codec_pass(&reply, &mut codec.result_encode, &mut codec.result_decode)
                });
                tally.record(outcome);
            }
        }
        i += 1;
    }
    r
}

/// A number in a flat JSON object, found by key path (`["latency",
/// "batch", "mean_s"]`). Enough for the fixed `hjsvd-serve-stats/v1` schema.
pub fn json_number(json: &str, path: &[&str]) -> Option<f64> {
    let (last, outer) = path.split_last()?;
    let mut rest = json;
    for key in outer {
        let at = rest.find(&format!("\"{key}\":{{"))?;
        rest = &rest[at + key.len() + 4..];
    }
    let at = rest.find(&format!("\"{last}\":"))?;
    let tail = &rest[at + last.len() + 3..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// A server plus `conns` connected clients; the time it took.
fn set_up(
    bin: &Path,
    workers: usize,
    conns: usize,
) -> Result<(ServeHarness, Vec<Client>, f64), String> {
    let t = Instant::now();
    let harness = ServeHarness::spawn(bin, workers)?;
    let clients = (0..conns)
        .map(|_| Client::connect(harness.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok((harness, clients, t.elapsed().as_secs_f64()))
}

/// How the two job classes shared the wire load: matrices solved (client
/// side) and server service time (per-class count × mean from the stats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Share of solved matrices that came in bulk jobs.
    pub bulk_matrix_share: f64,
    /// Share of summed server admission-to-completion time spent on bulk jobs.
    pub bulk_service_share: f64,
}

impl ClassMix {
    /// The mix of `single` and `bulk` matrices solved, with the service
    /// times in the `hjsvd-serve-stats/v1` JSON `stats`.
    pub fn measure(single: u64, bulk: u64, stats: &str) -> Result<ClassMix, String> {
        let busy = |class: &str| {
            let field = |k: &str| {
                json_number(stats, &["latency", class, k])
                    .ok_or_else(|| format!("server stats lack latency.{class}.{k}"))
            };
            Ok::<f64, String>(field("count")? * field("mean_s")?)
        };
        let (single_busy, bulk_busy) = (busy("interactive")?, busy("batch")?);
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        Ok(ClassMix {
            bulk_matrix_share: share(bulk as f64, (single + bulk) as f64),
            bulk_service_share: share(bulk_busy, single_busy + bulk_busy),
        })
    }

    fn note(&self) -> String {
        let pct = |x: f64| 100.0 * x;
        format!(
            "class mix (every {BULK_EVERY}th request bulk, an unverified assumption): single jobs {:.1}% of matrices and {:.1}% of server service time, bulk jobs {:.1}% and {:.1}%",
            pct(1.0 - self.bulk_matrix_share),
            pct(1.0 - self.bulk_service_share),
            pct(self.bulk_matrix_share),
            pct(self.bulk_service_share)
        )
    }
}

/// Run `serve-mixed` against the `hjsvd` binary at `bin`. The traced run
/// gives half its time to the wire load, which stays untraced, and half to
/// the in-process [`replay`].
pub fn run(bin: &Path, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let conns = nproc();
    let mut tally = Tally::default();
    let payloads = Payloads::generate(seed, &mut tally)?;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        let (harness, clients, dt) = set_up(bin, conns, conns)?;
        setups.push(dt);
        if k + 1 == SETUPS {
            kept = Some((harness, clients));
        } else {
            drop(clients);
            tally.record(harness.shutdown().check());
        }
    }
    let (harness, mut clients) = kept.expect("SETUPS is at least 1");

    let load_seconds = if trace { seconds / 2.0 } else { seconds };
    let (mut load, elapsed) = closed_loop(&mut clients, load_seconds, |c, conn, deadline| {
        drive_client(c, conn, deadline, &payloads)
    });
    let snapshot = clients[0].stats_json().map_err(|e| format!("stats: {e}"))?;
    drop(clients);
    let replayed =
        trace.then(|| replay(&payloads, seconds / 2.0, &mut tally, |a| chain::solve(a, false)));
    let shutdown = harness.shutdown();
    tally.record(shutdown.check());
    tally.merge(std::mem::take(&mut load.tally));

    let mix = ClassMix::measure(load.single_matrices, load.bulk_matrices, &snapshot)?;
    let mut notes = vec![
        format!(
            "{conns} closed-loop connections, server --workers {conns}; single {}x{} interactive, every {BULK_EVERY}th request a bulk job of {BULK_SIZE} {}x{} (batch class)",
            SINGLE_SHAPE.0, SINGLE_SHAPE.1, BULK_SHAPE.0, BULK_SHAPE.1
        ),
        mix.note(),
    ];
    let p50 = median(&load.single);
    let metrics = match replayed {
        None => metrics::complete(
            metrics::END_TO_END,
            vec![
                metric("setup_s", median(&setups), SETUPS)
                    .note(format!("median of {SETUPS}: spawn, listening line, {conns} connects")),
                metric(
                    "throughput_per_s",
                    (load.single_matrices + load.bulk_matrices) as f64 / elapsed,
                    load.single.len() + load.bulk.len(),
                )
                .note(format!(
                    "matrices solved per second, a bulk job counts its matrices ({:.1}% of them bulk)",
                    100.0 * mix.bulk_matrix_share
                )),
                metric("latency_p50_s", p50, load.single.len()).note("single-job round trip"),
                metrics::latency_tail(&load.single),
                metric("bulk_latency_p50_s", median(&load.bulk), load.bulk.len())
                    .note("bulk-job round trip"),
            ],
        ),
        Some(replayed) => {
            notes.push(format!(
                "wire load (untraced): latency_p50_s {p50:.9e} over {} single jobs",
                load.single.len()
            ));
            let mut m = serve_layer_metrics(&load, &replayed, &snapshot, &shutdown.final_stats)?;
            let traced = replayed.chain.iter().map(|c| c.times.total).collect::<Vec<_>>();
            let traced_p50 = median(&traced);
            m.push(
                metric("trace.latency_p50_s", traced_p50, traced.len())
                    .note("replayed single job, chain solve"),
            );
            m.push(
                metric("trace.overhead_s", traced_p50 - median(&replayed.single_solve), traced.len())
                    .note("chain solve minus warm library solve, same replay"),
            );
            metrics::complete(metrics::PER_LAYER, m)
        }
    };
    Ok(Report { workload: "serve-mixed".to_string(), seed, seconds, trace, metrics, tally, notes })
}

/// Per-layer metrics of the traced `serve-mixed` run.
fn serve_layer_metrics(
    load: &ConnSamples,
    r: &Replay,
    snapshot: &str,
    final_stats: &str,
) -> Result<Vec<Metric>, String> {
    let field = |json: &str, path: &[&str]| {
        json_number(json, path).ok_or_else(|| format!("server stats lack {}", path.join(".")))
    };
    let (m, n) = SINGLE_SHAPE;
    let mut out: Vec<Metric> = layer_metrics(m, n, false, &r.chain, median(&r.single_solve))
        .into_iter()
        .map(|mut x| {
            x.note = if x.note.is_empty() {
                "replayed single jobs".to_string()
            } else {
                format!("replayed single jobs; {}", x.note)
            };
            x
        })
        .collect();
    let bulk_n = r.batch_total.len();
    out.extend([
        metric("batch_engine.load_s", median(&r.batch_load), bulk_n),
        metric("batch_engine.sweep_s", median(&r.batch_sweep), bulk_n),
        metric("batch_engine.extract_s", median(&r.batch_extract), bulk_n),
        metric("batch_engine.lanes", median(&r.batch_lanes), bulk_n),
        metric("batch_engine.sweeps", median(&r.batch_sweeps), bulk_n),
    ]);
    for (class, c) in [("single", &r.single_codec), ("bulk", &r.bulk_codec)] {
        out.extend([
            metric(
                &format!("protocol.{class}.encode_s"),
                median(&c.submit_encode) + median(&c.result_encode),
                c.submit_encode.len(),
            )
            .note("submit encode + result encode"),
            metric(
                &format!("protocol.{class}.decode_s"),
                median(&c.submit_decode) + median(&c.result_decode),
                c.submit_decode.len(),
            )
            .note("submit decode + result decode"),
        ]);
    }
    for (class, server_class, rtts, solve) in [
        ("single", "interactive", &load.single, mean(&r.single_solve)),
        ("bulk", "batch", &load.bulk, mean(&r.batch_total)),
    ] {
        let rtt = mean(rtts);
        let service = field(snapshot, &["latency", server_class, "mean_s"])?;
        out.extend([
            metric(&format!("serve.{class}.rtt_s"), rtt, rtts.len()).note("mean client round trip"),
            metric(&format!("serve.{class}.service_s"), service, rtts.len())
                .note("server admission-to-completion mean"),
            metric(&format!("serve.{class}.wire_s"), rtt - service, rtts.len())
                .note("rtt - service"),
            metric(&format!("serve.{class}.queue_wait_s"), service - solve, rtts.len())
                .note("service - in-process solve mean"),
        ]);
    }
    let rejected = ["rejected_queue_full", "rejected_tenant_cap", "rejected_draining"]
        .iter()
        .map(|k| field(final_stats, &[k]))
        .sum::<Result<f64, String>>()?;
    out.extend([
        metric("serve.admitted", field(final_stats, &["admitted"])?, 0),
        metric("serve.rejected", rejected, 0),
        metric("serve.retries", field(final_stats, &["retries"])?, 0),
        metric("serve.faulted", field(final_stats, &["faulted"])?, 0),
    ]);
    Ok(out)
}
