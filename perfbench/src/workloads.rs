//! The three end-to-end workloads. All are closed loops: a caller sends
//! its next request only after the previous one is answered, which keeps
//! the offered load steady while the host's speed drifts.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use hero_gpu_sim::device::rtx_4090;
use hero_server::{hero_engine_factory, Client, KeyStore, Server, ServerConfig};
use hero_sign::{HeroSigner, SignService};
use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::{Signature, SigningKey, VerifyingKey};

use crate::inputs::{self, stream, Rng, VerifyItem, VerifyPool, MSG_LEN};
use crate::measure;
use crate::trace::Tracer;

pub const TENANT: &str = "bench";
/// Client threads or connections: the reference host has 2 hardware
/// threads, and all load comes from one process.
pub const CLIENTS: usize = 2;
/// Messages per `sign_batch` call in `bulk-sign-multikey`.
pub const BULK_BATCH: usize = 32;
/// Returned signatures compared byte for byte with the frozen scalar
/// oracle, per run.
pub const ORACLE_SAMPLES: usize = 4;

/// Work per measured second, sized on the reference host (2 vCPU x86-64)
/// so a run lasts about `--seconds`. The amount of work is fixed per run,
/// not the time, so counts and memory compare across commits.
const INTERACTIVE_SIGNS_PER_S: f64 = 118.0;
const BULK_BATCHES_PER_S: f64 = 2.8;
const VERIFY_REQUESTS_PER_S: f64 = 27.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Bulk,
    VerifyBeside,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Interactive,
        Workload::Bulk,
        Workload::VerifyBeside,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive-sign",
            Workload::Bulk => "bulk-sign-multikey",
            Workload::VerifyBeside => "verify-beside-sign",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn params(self) -> (Params, HashAlg) {
        match self {
            Workload::Bulk => (Params::shake_128f(), HashAlg::Shake256),
            _ => (Params::sphincs_128f(), HashAlg::Sha256),
        }
    }
}

/// The fixed amount of work of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub signs_per_client: usize,
    pub batches: usize,
    pub verify_requests: usize,
}

impl Sizes {
    pub fn new(seconds: f64) -> Self {
        let count = |rate: f64| ((rate * seconds).ceil() as usize).max(2);
        Sizes {
            signs_per_client: count(INTERACTIVE_SIGNS_PER_S / CLIENTS as f64),
            batches: count(BULK_BATCHES_PER_S),
            verify_requests: count(VERIFY_REQUESTS_PER_S),
        }
    }
}

/// Segments a paced window is split into. Between segments every caller
/// pauses while the host's speed is measured.
const SEGMENTS: usize = 24;

/// Operation counts, latencies and resource use of one timed window.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Signatures returned and verified.
    pub signs: u64,
    /// Signatures the workload had verified (by the program's verifier).
    pub verified: u64,
    pub sign_lat: Vec<Duration>,
    pub verify_lat: Vec<Duration>,
    pub wall: Duration,
    pub cpu_s: f64,
    /// Time-weighted mean host CPU speed over the window
    /// ([`measure::speed_index`]); 1.0 in unpaced windows.
    pub speed: f64,
    /// Time-weighted mean of speed times the share of CPU time the guest
    /// got ([`measure::availability`]); 1.0 in unpaced windows.
    pub capacity: f64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.signs += other.signs;
        self.verified += other.verified;
        self.sign_lat.extend(other.sign_lat);
        self.verify_lat.extend(other.verify_lat);
    }

    /// Signatures per wall-clock second, not adjusted for host speed.
    pub fn raw_sign_per_s(&self) -> f64 {
        self.signs as f64 / self.wall.as_secs_f64()
    }
}

/// Keeps the callers of a window in step with the thread measuring it.
struct Pacer {
    barrier: Barrier,
    segments: usize,
}

impl Pacer {
    fn new(callers: usize, paced: bool) -> Self {
        Pacer {
            barrier: Barrier::new(callers + 1),
            segments: if paced { SEGMENTS } else { 1 },
        }
    }

    /// Caller side: runs `work(k)` for every segment `k`.
    fn run(&self, mut work: impl FnMut(usize)) {
        for k in 0..self.segments {
            self.barrier.wait();
            work(k);
            self.barrier.wait();
        }
    }

    /// Measuring side: times every segment and, when paced, the host's
    /// speed before and after it and the CPU time stolen during it;
    /// `between` runs while the callers wait. Sets the window's wall time,
    /// CPU time, mean speed and mean capacity in `window`.
    fn measure(&self, window: &mut Tally, mut between: impl FnMut()) {
        let paced = self.segments > 1;
        let speed = || if paced { measure::speed_index() } else { 1.0 };
        let (mut speed_sum, mut capacity_sum) = (0.0, 0.0);
        let mut before = speed();
        for _ in 0..self.segments {
            self.barrier.wait();
            let (t0, cpu0, steal0) = (
                Instant::now(),
                measure::cpu_seconds(),
                measure::steal_seconds(),
            );
            self.barrier.wait();
            let segment = t0.elapsed();
            let available = if paced {
                measure::availability(segment, measure::steal_seconds() - steal0)
            } else {
                1.0
            };
            window.cpu_s += measure::cpu_seconds() - cpu0;
            between();
            let after = speed();
            let mean_speed = (before + after) / 2.0;
            window.wall += segment;
            speed_sum += segment.as_secs_f64() * mean_speed;
            capacity_sum += segment.as_secs_f64() * mean_speed * available;
            before = after;
        }
        window.speed = speed_sum / window.wall.as_secs_f64();
        window.capacity = capacity_sum / window.wall.as_secs_f64();
    }
}

/// Segment `k` of `0..len` split into `segments` parts.
fn chunk(len: usize, k: usize, segments: usize) -> Range<usize> {
    len * k / segments..len * (k + 1) / segments
}

/// Runs `f`, inside a span when tracing.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, request, |_| f()),
        None => f(),
    }
}

/// Runs `f(parent)` under a root `request` span when tracing. Request ids
/// are `kind << 32 | index`: kinds 1-2 the interactive callers, 3 and 4
/// the verify and sign callers of `verify-beside-sign`, 5 the bulk
/// batches, 8-9 the traced run's replay; 0 is reserved for standalone
/// spans.
fn request_span<R>(tracer: Option<&Tracer>, request: u64, f: impl FnOnce(Option<u64>) -> R) -> R {
    match tracer {
        Some(t) => t.span("request", None, request, |id| f(Some(id))),
        None => f(None),
    }
}

/// A server with one warmed tenant (the workload's first seeded key) and
/// [`CLIENTS`] connected clients, each of which has had one signature
/// answered.
pub struct ServerRig {
    pub server: Server,
    pub sk: SigningKey,
    pub vk: VerifyingKey,
    pub clients: Vec<Client>,
}

/// Set-up of the server workloads: keygen, server start (engine build
/// with tuning, cache warm), and one answered sign per connection.
pub fn start_server(seed: u64, workload: Workload) -> Result<ServerRig, String> {
    let (params, alg) = workload.params();
    let (sk, vk) = inputs::key(params, alg, &mut Rng::new(seed, stream::KEYS));
    let keystore = KeyStore::new();
    keystore
        .insert(TENANT, sk.clone(), vk.clone())
        .map_err(|e| format!("tenant insert: {e}"))?;
    let factory = hero_engine_factory(None).map_err(|e| format!("engine factory: {e}"))?;
    let server = Server::start(factory, keystore, ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for msg in inputs::messages(&mut Rng::new(seed, stream::SETUP), CLIENTS) {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let sig = client
            .sign(TENANT, &msg)
            .map_err(|e| format!("first sign: {e}"))?;
        if !inputs::verifies(&vk, &msg, &sig) {
            return Err("first signature does not verify".to_string());
        }
        clients.push(client);
    }
    Ok(ServerRig {
        server,
        sk,
        vk,
        clients,
    })
}

/// Set-up of `bulk-sign-multikey`: engine build (with tuning) and one
/// verified signature under a set-up key.
pub fn start_bulk(seed: u64) -> Result<HeroSigner, String> {
    let (params, alg) = Workload::Bulk.params();
    let engine = HeroSigner::builder(rtx_4090(), params)
        .build()
        .map_err(|e| format!("engine build: {e}"))?;
    let mut rng = Rng::new(seed, stream::SETUP);
    let (sk, vk) = inputs::key(params, alg, &mut rng);
    let msg = rng.bytes(MSG_LEN);
    let sig = engine
        .sign(&sk, &msg)
        .map_err(|e| format!("first sign: {e}"))?;
    vk.verify(&msg, &sig)
        .map_err(|e| format!("first signature does not verify: {e}"))?;
    Ok(engine)
}

/// A returned signature kept for the oracle comparison after the window.
pub struct OracleSample {
    pub key: usize,
    pub msg: Vec<u8>,
    pub sig: Vec<u8>,
}

/// Seeded positions, in `0..range`, of the oracle samples.
pub fn oracle_positions(seed: u64, range: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream::ORACLE);
    (0..count)
        .map(|_| rng.below(range as u64) as usize)
        .collect()
}

/// Compares each sample with `hero_bench::baseline::sign`; returns how
/// many differ.
pub fn oracle_mismatches(samples: &[OracleSample], keys: &[&SigningKey]) -> u64 {
    samples
        .iter()
        .filter(|s| {
            let sk = keys[s.key];
            hero_bench::baseline::sign(sk, &s.msg).to_bytes(sk.params()) != s.sig
        })
        .count() as u64
}

/// How a workload reaches the signer: a wire [`Client`] connection, or
/// the in-process [`SignService`] the traced run compares it with.
pub trait Caller: Send {
    fn sign(&mut self, msg: &[u8]) -> Result<Vec<u8>, String>;
    /// One verdict per item: `true` when the signature verified.
    fn verify_batch(&mut self, items: &[(&[u8], &[u8])]) -> Result<Vec<bool>, String>;
}

impl Caller for Client {
    fn sign(&mut self, msg: &[u8]) -> Result<Vec<u8>, String> {
        Client::sign(self, TENANT, msg).map_err(|e| e.to_string())
    }

    fn verify_batch(&mut self, items: &[(&[u8], &[u8])]) -> Result<Vec<bool>, String> {
        Client::verify_batch(self, TENANT, items)
            .map(|verdicts| verdicts.iter().map(|v| v.is_valid()).collect())
            .map_err(|e| e.to_string())
    }
}

/// A caller of an in-process [`SignService`].
pub struct ServiceCaller<'a> {
    pub service: &'a SignService,
    pub params: Params,
}

impl Caller for ServiceCaller<'_> {
    fn sign(&mut self, msg: &[u8]) -> Result<Vec<u8>, String> {
        let ticket = self.service.submit(msg).map_err(|e| e.to_string())?;
        let sig = ticket.wait().map_err(|e| e.to_string())?;
        Ok(sig.to_bytes(&self.params))
    }

    fn verify_batch(&mut self, items: &[(&[u8], &[u8])]) -> Result<Vec<bool>, String> {
        // Undecodable signatures are answered without the service, as the
        // server answers them without consuming a lane slot.
        let tickets: Vec<Option<_>> = items
            .iter()
            .map(
                |(msg, sig)| match Signature::from_bytes(&self.params, sig) {
                    Ok(sig) => self
                        .service
                        .submit_verify(*msg, sig)
                        .map(Some)
                        .map_err(|e| e.to_string()),
                    Err(_) => Ok(None),
                },
            )
            .collect::<Result<_, _>>()?;
        tickets
            .into_iter()
            .map(|t| match t {
                Some(t) => t.wait().map(|v| v.is_valid()).map_err(|e| e.to_string()),
                None => Ok(false),
            })
            .collect()
    }
}

/// Closed-loop signing on one caller over `range` (message `i` is
/// `msgs[i % len]`), or until `stop` is set; returns the next index.
#[allow(clippy::too_many_arguments)]
fn sign_loop(
    caller: &mut dyn Caller,
    vk: &VerifyingKey,
    msgs: &[Vec<u8>],
    range: Range<usize>,
    stop: Option<&AtomicBool>,
    oracle_at: &[usize],
    tracer: Option<&Tracer>,
    request_base: u64,
    tally: &mut Tally,
    samples: &mut Vec<OracleSample>,
) -> usize {
    for i in range.clone() {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            return i;
        }
        let msg = &msgs[i % msgs.len()];
        let request = request_base + i as u64;
        tally.attempted += 1;
        let ok = request_span(tracer, request, |root| {
            let t0 = Instant::now();
            let reply = traced(tracer, "caller.sign", root, request, || caller.sign(msg));
            let latency = t0.elapsed();
            let Ok(sig) = reply else { return false };
            let v0 = Instant::now();
            let valid = traced(tracer, "check.verify", root, request, || {
                inputs::verifies(vk, msg, &sig)
            });
            tally.verify_lat.push(v0.elapsed());
            tally.verified += 1;
            if valid {
                tally.sign_lat.push(latency);
                if oracle_at.contains(&i) {
                    samples.push(OracleSample {
                        key: 0,
                        msg: msg.clone(),
                        sig,
                    });
                }
            }
            valid
        });
        if ok {
            tally.signs += 1;
        } else {
            tally.failed += 1;
        }
    }
    range.end
}

/// `interactive-sign`: one thread per caller, each signing its own stream
/// of fresh messages.
pub fn interactive(
    callers: &mut [impl Caller],
    vk: &VerifyingKey,
    msgs: &[Vec<Vec<u8>>],
    oracle_at: &[usize],
    tracer: Option<&Tracer>,
    paced: bool,
) -> (Tally, Vec<OracleSample>) {
    let pacer = Pacer::new(callers.len(), paced);
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .zip(msgs)
            .enumerate()
            .map(|(c, (caller, msgs))| {
                let pacer = &pacer;
                let oracle_at: &[usize] = if c == 0 { oracle_at } else { &[] };
                scope.spawn(move || {
                    let (mut tally, mut samples) = (Tally::default(), Vec::new());
                    let base = (c as u64 + 1) << 32;
                    pacer.run(|k| {
                        let range = chunk(msgs.len(), k, pacer.segments);
                        sign_loop(
                            caller,
                            vk,
                            msgs,
                            range,
                            None,
                            oracle_at,
                            tracer,
                            base,
                            &mut tally,
                            &mut samples,
                        );
                    });
                    (tally, samples)
                })
            })
            .collect();
        pacer.measure(&mut tally, || {});
        for h in handles {
            let (t, s) = h.join().expect("client thread panicked");
            tally.merge(t);
            samples.extend(s);
        }
    });
    (tally, samples)
}

/// `verify-beside-sign`: `verifier` sends the pool's verify batches while
/// `signer` signs single messages until the verifier is done.
#[allow(clippy::too_many_arguments)]
pub fn verify_beside(
    verifier: &mut dyn Caller,
    signer: &mut dyn Caller,
    vk: &VerifyingKey,
    pool: &VerifyPool,
    requests: &[Vec<VerifyItem>],
    sign_msgs: &[Vec<u8>],
    oracle_at: &[usize],
    tracer: Option<&Tracer>,
    paced: bool,
) -> (Tally, Vec<OracleSample>) {
    let pacer = Pacer::new(2, paced);
    let done = AtomicBool::new(false);
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let (pacer, done) = (&pacer, &done);
        let verify = scope.spawn(move || {
            let mut tally = Tally::default();
            pacer.run(|k| {
                for j in chunk(requests.len(), k, pacer.segments) {
                    let request = &requests[j];
                    let pairs: Vec<(&[u8], &[u8])> =
                        request.iter().map(|&it| pool.pair(it)).collect();
                    let id = (3 << 32) + j as u64;
                    tally.attempted += pairs.len() as u64;
                    let t0 = Instant::now();
                    let reply = request_span(tracer, id, |root| {
                        traced(tracer, "caller.verify_batch", root, id, || {
                            verifier.verify_batch(&pairs)
                        })
                    });
                    let latency = t0.elapsed();
                    match reply {
                        Ok(verdicts) if verdicts.len() == request.len() => {
                            tally.verify_lat.push(latency);
                            tally.verified += verdicts.len() as u64;
                            let wrong = verdicts
                                .iter()
                                .zip(request)
                                .filter(|(&valid, it)| valid != it.expect_valid())
                                .count();
                            tally.failed += wrong as u64;
                        }
                        _ => tally.failed += pairs.len() as u64,
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
            tally
        });
        let sign = scope.spawn(move || {
            let (mut tally, mut samples) = (Tally::default(), Vec::new());
            let mut next = 0;
            pacer.run(|_| {
                next = sign_loop(
                    signer,
                    vk,
                    sign_msgs,
                    next..usize::MAX,
                    Some(done),
                    oracle_at,
                    tracer,
                    4 << 32,
                    &mut tally,
                    &mut samples,
                );
            });
            // The verify metrics of this workload are the verify requests';
            // the sign caller's own checks stay out of them.
            tally.verified = 0;
            tally.verify_lat.clear();
            (tally, samples)
        });
        pacer.measure(&mut tally, || done.store(false, Ordering::Relaxed));
        tally.merge(verify.join().expect("verify thread panicked"));
        let (t, s) = sign.join().expect("sign thread panicked");
        tally.merge(t);
        samples = s;
    });
    (tally, samples)
}

/// Inputs of `bulk-sign-multikey`: one fresh key and [`BULK_BATCH`]
/// messages per batch.
pub struct BulkInputs {
    pub keys: Vec<(SigningKey, VerifyingKey)>,
    pub msgs: Vec<Vec<Vec<u8>>>,
}

impl BulkInputs {
    pub fn new(seed: u64, batches: usize) -> Self {
        let (params, alg) = Workload::Bulk.params();
        let mut key_rng = Rng::new(seed, stream::KEYS);
        let mut msg_rng = Rng::new(seed, stream::MESSAGES);
        BulkInputs {
            keys: (0..batches)
                .map(|_| inputs::key(params, alg, &mut key_rng))
                .collect(),
            msgs: (0..batches)
                .map(|_| inputs::messages(&mut msg_rng, BULK_BATCH))
                .collect(),
        }
    }
}

/// One `sign_batch` of batch `b`, its check with `verify_many`, and the
/// oracle sample when `b` is an oracle position.
#[allow(clippy::too_many_arguments)]
fn bulk_batch(
    engine: &HeroSigner,
    inputs: &BulkInputs,
    b: usize,
    tally: &mut Tally,
    samples: &mut Vec<OracleSample>,
    oracle_at: &[usize],
    tracer: Option<&Tracer>,
) {
    let (sk, vk) = &inputs.keys[b];
    let refs: Vec<&[u8]> = inputs.msgs[b].iter().map(Vec::as_slice).collect();
    tally.attempted += refs.len() as u64;
    let id = (5 << 32) + b as u64;
    request_span(tracer, id, |root| {
        let t0 = Instant::now();
        let reply = traced(tracer, "plan.sign_batch", root, id, || {
            engine.sign_batch(sk, &refs)
        });
        let latency = t0.elapsed();
        let Ok(sigs) = reply else {
            tally.failed += refs.len() as u64;
            return;
        };
        tally.sign_lat.push(latency);
        let verdicts: Vec<bool> = traced(tracer, "check.verify", root, id, || {
            refs.iter()
                .zip(&sigs)
                .map(|(msg, sig)| {
                    let v0 = Instant::now();
                    let valid = vk.verify(msg, sig).is_ok();
                    tally.verify_lat.push(v0.elapsed());
                    valid
                })
                .collect()
        });
        tally.verified += verdicts.len() as u64;
        for (j, &valid) in verdicts.iter().enumerate() {
            if valid && sigs.len() == refs.len() {
                tally.signs += 1;
            } else {
                tally.failed += 1;
            }
            if oracle_at.contains(&(b * BULK_BATCH + j)) {
                samples.push(OracleSample {
                    key: b,
                    msg: refs[j].to_vec(),
                    sig: sigs[j].to_bytes(sk.params()),
                });
            }
        }
    });
}

/// `bulk-sign-multikey`: one caller thread, one `sign_batch` per fresh
/// key, over `batches`.
pub fn bulk(
    engine: &HeroSigner,
    inputs: &BulkInputs,
    batches: Range<usize>,
    oracle_at: &[usize],
    tracer: Option<&Tracer>,
    paced: bool,
) -> (Tally, Vec<OracleSample>) {
    let pacer = Pacer::new(1, paced);
    std::thread::scope(|scope| {
        let caller = scope.spawn(|| {
            let (mut tally, mut samples) = (Tally::default(), Vec::new());
            pacer.run(|k| {
                let part = chunk(batches.len(), k, pacer.segments);
                for b in batches.start + part.start..batches.start + part.end {
                    bulk_batch(
                        engine,
                        inputs,
                        b,
                        &mut tally,
                        &mut samples,
                        oracle_at,
                        tracer,
                    );
                }
            });
            (tally, samples)
        });
        let mut tally = Tally::default();
        pacer.measure(&mut tally, || {});
        let (t, samples) = caller.join().expect("bulk caller panicked");
        tally.merge(t);
        (tally, samples)
    })
}

/// What a workload runs on.
pub enum Rig {
    Server(ServerRig),
    Bulk(HeroSigner),
}

/// A set-up workload with its seeded inputs, generated before any
/// window.
pub struct Prepared {
    pub workload: Workload,
    pub rig: Rig,
    /// Per-caller message streams (server workloads).
    pub msgs: Vec<Vec<Vec<u8>>>,
    pub pool: Option<VerifyPool>,
    pub bulk: Option<BulkInputs>,
    pub oracle_at: Vec<usize>,
}

pub fn prepare(workload: Workload, seed: u64, sizes: Sizes) -> Result<Prepared, String> {
    let mut rng = Rng::new(seed, stream::MESSAGES);
    let oracle = |range| oracle_positions(seed, range, ORACLE_SAMPLES);
    Ok(match workload {
        Workload::Bulk => Prepared {
            workload,
            rig: Rig::Bulk(start_bulk(seed)?),
            msgs: Vec::new(),
            pool: None,
            bulk: Some(BulkInputs::new(seed, sizes.batches)),
            oracle_at: oracle(sizes.batches * BULK_BATCH),
        },
        Workload::Interactive => Prepared {
            workload,
            rig: Rig::Server(start_server(seed, workload)?),
            msgs: (0..CLIENTS)
                .map(|_| inputs::messages(&mut rng, sizes.signs_per_client))
                .collect(),
            pool: None,
            bulk: None,
            oracle_at: oracle(sizes.signs_per_client),
        },
        Workload::VerifyBeside => {
            let rig = start_server(seed, workload)?;
            // Building the pool is not part of set-up: it stands in for
            // signatures that arrive from elsewhere.
            let pool = VerifyPool::build(
                &mut Rng::new(seed, stream::POOL),
                sizes.verify_requests,
                |msgs| {
                    let params = *rig.sk.params();
                    msgs.iter()
                        .map(|m| rig.sk.sign(m).to_bytes(&params))
                        .collect()
                },
            );
            // The sign caller wraps around its stream if it outpaces
            // this many requests.
            let signs = sizes.verify_requests * 4;
            Prepared {
                workload,
                rig: Rig::Server(rig),
                msgs: vec![inputs::messages(&mut rng, signs)],
                pool: Some(pool),
                bulk: None,
                // The sign caller completes several requests per verify
                // request, so the sampled positions are reached.
                oracle_at: oracle(sizes.verify_requests),
            }
        }
    })
}

/// The sub-range `share` (fractions of the run's inputs) of `len` items.
fn part(len: usize, share: &Range<f64>) -> Range<usize> {
    (len as f64 * share.start) as usize..(len as f64 * share.end) as usize
}

impl Prepared {
    /// Runs the workload's window over the `share` of its inputs,
    /// reaching the signer through `callers` (server workloads; `None`
    /// uses the rig's wire clients). Returns the tally and how many
    /// oracle samples mismatched. A `paced` window is split into
    /// [`SEGMENTS`] with the host's speed measured between them.
    pub fn window(
        &mut self,
        share: Range<f64>,
        callers: Option<&mut [ServiceCaller<'_>]>,
        tracer: Option<&Tracer>,
        paced: bool,
    ) -> (Tally, u64) {
        let oracle_at: &[usize] = if share == (0.0..1.0) {
            &self.oracle_at
        } else {
            &[]
        };
        match &mut self.rig {
            Rig::Bulk(engine) => {
                let inputs = self.bulk.as_ref().expect("bulk workload has bulk inputs");
                let (tally, samples) = bulk(
                    engine,
                    inputs,
                    part(inputs.keys.len(), &share),
                    oracle_at,
                    tracer,
                    paced,
                );
                let keys: Vec<&SigningKey> = inputs.keys.iter().map(|(sk, _)| sk).collect();
                (tally, oracle_mismatches(&samples, &keys))
            }
            Rig::Server(rig) => {
                let msgs: Vec<Vec<Vec<u8>>> = self
                    .msgs
                    .iter()
                    .map(|m| m[part(m.len(), &share)].to_vec())
                    .collect();
                let vk = &rig.vk;
                let (tally, samples) = match (self.workload, callers) {
                    (Workload::Interactive, Some(c)) => {
                        interactive(c, vk, &msgs, oracle_at, tracer, paced)
                    }
                    (Workload::Interactive, None) => {
                        interactive(&mut rig.clients, vk, &msgs, oracle_at, tracer, paced)
                    }
                    (_, callers) => {
                        let pool = self.pool.as_ref().expect("verify workload has a pool");
                        let requests = &pool.requests[part(pool.requests.len(), &share)];
                        let verify = |v: &mut dyn Caller, s: &mut dyn Caller| {
                            verify_beside(
                                v, s, vk, pool, requests, &msgs[0], oracle_at, tracer, paced,
                            )
                        };
                        match callers {
                            Some([v, s]) => verify(v, s),
                            Some(_) => panic!("verify-beside-sign takes two callers"),
                            None => {
                                let [v, s] = &mut rig.clients[..] else {
                                    panic!("server rig has {CLIENTS} clients")
                                };
                                verify(v, s)
                            }
                        }
                    }
                };
                (tally, oracle_mismatches(&samples, &[&rig.sk]))
            }
        }
    }
}
