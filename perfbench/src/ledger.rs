//! The traced run: the per-layer ledger.
//!
//! It measures, on the workload's seeded inputs:
//!
//! 1. two equal windows of the workload itself, untraced then traced
//!    (spans around every call, counting allocator on), on disjoint
//!    halves of the inputs: `trace.overhead_frac`, `alloc.*`, executor,
//!    cache and server counters;
//! 2. the same traffic through an in-process `SignService`: its
//!    coalescing (`service.mean_*`);
//! 3. a layer-by-layer replay of single requests and 32-message batches,
//!    every call in its own span under one root span per request (the
//!    closure test sums these): wire, service, planned engine, the three
//!    paper stages, and the three verifiers;
//! 4. the hash cores and primitives, called directly.
//!
//! The program is not instrumented; every span wraps a call to a public
//! entry point from this file.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hero_gpu_sim::device::rtx_4090;
use hero_server::Client;
use hero_sign::kernels::{fors_sign, tree_sign, wots_sign};
use hero_sign::plan::{self, PlanShape};
use hero_sign::{par, workload as cost, CacheStats, HeroSigner, ServiceConfig, SignService};
use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::hash::{self, HashCtx};
use hero_sphincs::tier::{self, HashTier, Primitive};
use hero_sphincs::{fors, hypertree, keccak, merkle, sha256, wots};
use hero_sphincs::{Signature, SigningKey, VerifyingKey};
use hero_task_graph::Executor;

use crate::inputs::{self, stream, Rng, VERIFY_BATCH};
use crate::measure::{self, Allocations};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Caller, Rig, ServiceCaller, Sizes, Workload, BULK_BATCH, CLIENTS};
use crate::{metric, Args, Metric, Report, OUT_DIR};

/// Single-message requests replayed layer by layer.
const REPLAY_SINGLE: usize = 16;
/// 32-message batch requests replayed layer by layer.
const REPLAY_BATCHES: usize = 2;
/// Repetitions of each primitive timing (the median is reported).
const PRIMITIVE_REPS: usize = 7;
/// Time spent per hash-core measurement.
const CORE_TIME: Duration = Duration::from_millis(120);

/// Median duration of the spans called `name`, in milliseconds.
fn p50_ms(tracer: &Tracer, name: &str) -> f64 {
    let d = tracer.durations(name);
    if d.is_empty() {
        f64::NAN
    } else {
        measure::quantile_ms(&d, 0.5)
    }
}

/// Median wall time of `reps` calls of `f`, in seconds, each in a span.
fn time_median(tracer: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            tracer.span(name, None, 0, |_| f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    measure::median(&mut secs)
}

/// Calls of `f` per second, each call doing `work` units, over
/// [`CORE_TIME`].
fn rate(work: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < CORE_TIME {
        f();
        calls += 1;
    }
    calls as f64 * work / t0.elapsed().as_secs_f64()
}

/// Million compressions (SHA-256) or permutations (Keccak) per second on
/// one thread through `Sha256xN` / `KeccakxN`, under `tier`.
fn core_rate(primitive: Primitive, tier_choice: HashTier) -> f64 {
    let prev = tier::force_tier(tier_choice);
    let r = match primitive {
        Primitive::Sha256 => {
            let block = [0x5au8; sha256::BLOCK_LEN];
            let blocks = [&block; sha256::LANES];
            let mut x = sha256::Sha256xN::broadcast([0x6a09_e667; 8]);
            rate(sha256::LANES as f64, || {
                x.compress(&blocks);
                std::hint::black_box(&mut x);
            })
        }
        Primitive::Keccak => {
            let block = [0xa5u8; keccak::RATE];
            let blocks = [&block; keccak::LANES];
            let mut x = keccak::KeccakxN::new();
            rate(keccak::LANES as f64, || {
                x.absorb_blocks(&blocks);
                std::hint::black_box(&mut x);
            })
        }
    };
    tier::restore_tier(prev);
    r / 1e6
}

/// `(dispatched, best)` core rates over every tier the host supports.
fn core_rates(primitive: Primitive) -> (f64, f64) {
    let dispatched = match primitive {
        Primitive::Sha256 => tier::sha256_tier(),
        Primitive::Keccak => tier::keccak_tier(),
    };
    let mut best = 0.0f64;
    let mut at_dispatch = 0.0;
    for t in tier::supported_tiers(primitive) {
        let r = core_rate(primitive, t);
        if t == dispatched {
            at_dispatch = r;
        }
        best = best.max(r);
    }
    (at_dispatch, best)
}

/// Digest split of `msg` under `sk`, as `sign` computes it.
struct Coords {
    md: Vec<u8>,
    tree: u64,
    leaf: u32,
    adrs: Address,
}

fn coords(ctx: &HashCtx, sk: &SigningKey, msg: &[u8]) -> Coords {
    let r = ctx.prf_msg(sk.sk_prf(), sk.pk_seed(), msg);
    let digest = ctx.h_msg(&r, sk.pk_root(), msg);
    let (md, tree, leaf) = hash::split_digest(ctx.params(), &digest);
    let mut adrs = Address::new();
    adrs.set_layer(0);
    adrs.set_tree(tree);
    adrs.set_type(AddressType::ForsTree);
    adrs.set_keypair(leaf);
    Coords {
        md,
        tree,
        leaf,
        adrs,
    }
}

/// The three paper stages for one message, each through its kernel's
/// `run` on one worker (Table II, batch 1).
fn stages_b1(
    tracer: &Tracer,
    root: Option<u64>,
    req: u64,
    ctx: &HashCtx,
    sk: &SigningKey,
    msg: &[u8],
) {
    let params = *ctx.params();
    let seed = sk.sk_seed();
    let c = tracer.span("hash.h_msg", root, req, |_| coords(ctx, sk, msg));
    let (_, fors_pk) = tracer.span("stage.b1.fors_sign", root, req, |_| {
        fors_sign::run(ctx, seed, &c.md, &c.adrs, 1)
    });
    let layers = tracer.span("stage.b1.tree_sign", root, req, |_| {
        tree_sign::run(ctx, seed, c.tree, c.leaf, 1)
    });
    tracer.span("stage.b1.wots_sign", root, req, |_| {
        let roots: Vec<Vec<u8>> = layers.into_iter().map(|l| l.root).collect();
        let at = tree_sign::layer_coordinates(&params, c.tree, c.leaf);
        std::hint::black_box(wots_sign::run(ctx, seed, &fors_pk, &roots, &at, 1));
    });
}

/// The three paper stages for a batch of messages, each as one batched
/// stage call over every message (the planner's work items, batch 32).
fn stages_batched(
    tracer: &Tracer,
    root: Option<u64>,
    req: u64,
    ctx: &HashCtx,
    sk: &SigningKey,
    msgs: &[&[u8]],
) {
    let params = *ctx.params();
    let (n, seed) = (params.n, sk.sk_seed());
    let cs: Vec<Coords> = tracer.span("hash.h_msg", root, req, |_| {
        msgs.iter().map(|m| coords(ctx, sk, m)).collect()
    });
    let fors_pks: Vec<Vec<u8>> = tracer.span("stage.b32.fors_sign", root, req, |_| {
        let reqs: Vec<fors::ForsTreeRequest> = cs
            .iter()
            .flat_map(|c| fors_sign::tree_requests(&params, &c.md, &c.adrs))
            .collect();
        let trees = fors_sign::sign_trees(ctx, seed, &reqs);
        trees
            .chunks(params.k)
            .zip(&cs)
            .map(|(trees, c)| {
                let flat: Vec<u8> = trees
                    .iter()
                    .flat_map(|(_, root)| root.iter().copied())
                    .collect();
                fors_sign::roots_to_pk(ctx, &c.adrs, &flat)
            })
            .collect()
    });
    let roots: Vec<Vec<u8>> = tracer.span("stage.b32.tree_sign", root, req, |_| {
        let items: Vec<tree_sign::SubtreeItem> = cs
            .iter()
            .flat_map(|c| tree_sign::subtree_items(&params, c.tree, c.leaf))
            .collect();
        tree_sign::subtrees(ctx, seed, &items)
            .into_iter()
            .map(|l| l.root)
            .collect()
    });
    tracer.span("stage.b32.wots_sign", root, req, |_| {
        let mut items = Vec::with_capacity(cs.len() * params.d);
        for (i, c) in cs.iter().enumerate() {
            let at = tree_sign::layer_coordinates(&params, c.tree, c.leaf);
            for (layer, &(tree, leaf)) in at.iter().enumerate() {
                let msg = if layer == 0 {
                    &fors_pks[i][..]
                } else {
                    &roots[i * params.d + layer - 1][..]
                };
                items.push(wots_sign::ChainGroupItem {
                    msg,
                    layer: layer as u32,
                    tree,
                    leaf,
                });
            }
        }
        debug_assert!(items.iter().all(|it| it.msg.len() == n));
        std::hint::black_box(wots_sign::sign_chain_groups(ctx, seed, &items));
    });
}

/// A message and its encoded signature.
type Signed = (Vec<u8>, Vec<u8>);

/// 16 verify items from signed pairs: the last two are corrupted (one
/// bit-flipped signature, one signature of another message). Returns the
/// items and their expected verdicts.
fn verify_items(signed: &[Signed], rng: &mut Rng) -> (Vec<Signed>, Vec<bool>) {
    let mut items: Vec<Signed> = signed[..VERIFY_BATCH].to_vec();
    let bad = &mut items[VERIFY_BATCH - 2].1;
    let bit = rng.below(bad.len() as u64 * 8) as usize;
    bad[bit / 8] ^= 1 << (bit % 8);
    items[VERIFY_BATCH - 1].1 = signed[0].1.clone();
    let expect = (0..VERIFY_BATCH).map(|i| i < VERIFY_BATCH - 2).collect();
    (items, expect)
}

/// Parses one `name value` line of the server's metrics page.
fn page_value(page: &str, name: &str) -> f64 {
    page.lines()
        .filter_map(|l| l.strip_prefix(name))
        .filter_map(|rest| rest.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let (params, alg) = w.params();
    let secs = args.seconds as f64;
    let tracer = Tracer::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // 1. The workload, untraced then traced, a quarter of a run each.
    let mut prepared = workloads::prepare(w, args.seed, Sizes::new(secs / 2.0))?;
    let exec: Arc<Executor> = match &prepared.rig {
        Rig::Bulk(engine) => Arc::clone(engine.runtime()),
        Rig::Server(_) => Arc::clone(par::shared_executor()),
    };
    let (untraced, bad) = prepared.window(0.0..0.5, None, None, false);
    failed += untraced.failed + bad;
    attempted += untraced.attempted;
    let submissions0 = exec.submissions();
    let allocs = Allocations::start();
    let (traced, bad) = prepared.window(0.5..1.0, None, Some(&tracer), false);
    let (alloc_count, alloc_bytes) = allocs.stop();
    let submissions = exec.submissions() - submissions0;
    failed += traced.failed + bad;
    attempted += traced.attempted;
    let calls = traced.sign_lat.len().max(1) as f64;
    let signs_traced = traced.signs.max(1) as f64;

    let (cache, rejections, replay_server) = match &prepared.rig {
        Rig::Server(rig) => {
            let page = rig.server.metrics_page();
            let cache = CacheStats {
                hits: page_value(&page, "hero_cache_hits_total ") as u64,
                misses: page_value(&page, "hero_cache_misses_total ") as u64,
                evictions: page_value(&page, "hero_cache_evictions_total ") as u64,
                resident_bytes: page_value(&page, "hero_cache_resident_bytes_total ") as u64,
                ..CacheStats::default()
            };
            (
                cache,
                page_value(&page, "hero_server_tenant_rejected_total"),
                None,
            )
        }
        // The bulk workload has no server; the wire layer is measured on
        // one started for the replay, with the workload's first key.
        Rig::Bulk(engine) => (
            engine.cache_stats(),
            0.0,
            Some(workloads::start_server(args.seed, w)?),
        ),
    };
    let signs_total = (untraced.signs + traced.signs).max(1) as f64;

    // 2 + 3. An in-process service and engine beside the wire.
    let (sk, vk, engine): (SigningKey, VerifyingKey, HeroSigner) = match &prepared.rig {
        Rig::Server(rig) => {
            let engine = HeroSigner::builder(rtx_4090(), params)
                .runtime(Arc::clone(par::shared_executor()))
                .build()
                .map_err(|e| format!("replay engine: {e}"))?;
            engine
                .warm_key(&rig.sk)
                .map_err(|e| format!("replay warm: {e}"))?;
            (rig.sk.clone(), rig.vk.clone(), engine)
        }
        Rig::Bulk(engine) => {
            let (sk, vk) = prepared.bulk.as_ref().expect("bulk inputs").keys[0].clone();
            (sk, vk, engine.clone())
        }
    };
    let service = SignService::start(
        Arc::new(engine.clone()),
        sk.clone(),
        ServiceConfig::default(),
    )
    .map_err(|e| format!("replay service: {e}"))?;
    let caller = || ServiceCaller {
        service: &service,
        params,
    };

    // 2. The workload's traffic shape through the service.
    match w {
        Workload::Bulk => {
            for msgs in prepared
                .bulk
                .as_ref()
                .expect("bulk inputs")
                .msgs
                .iter()
                .take(2)
            {
                let tickets: Vec<_> = msgs.iter().map(|m| service.submit(m.clone())).collect();
                for (m, t) in msgs.iter().zip(tickets) {
                    attempted += 1;
                    let ok = t
                        .map_err(|e| e.to_string())
                        .and_then(|t| t.wait().map_err(|e| e.to_string()));
                    if !ok.is_ok_and(|sig| vk.verify(m, &sig).is_ok()) {
                        failed += 1;
                    }
                }
            }
        }
        _ => {
            let mut callers: Vec<ServiceCaller> = (0..CLIENTS).map(|_| caller()).collect();
            let (t, bad) = prepared.window(0.0..0.25, Some(&mut callers), None, false);
            failed += t.failed + bad;
            attempted += t.attempted;
        }
    }
    let shaped = service.stats();

    // 3. Layer-by-layer replay.
    let ctx = HashCtx::with_alg(params, sk.pk_seed(), alg);
    let mut rng = Rng::new(args.seed, stream::REPLAY);
    let mut client: Client = match (&prepared.rig, &replay_server) {
        (_, Some(rig)) => Client::connect(rig.server.local_addr()),
        (Rig::Server(rig), None) => Client::connect(rig.server.local_addr()),
        (Rig::Bulk(_), None) => unreachable!("bulk replay starts its own server"),
    }
    .map_err(|e| format!("replay connect: {e}"))?;
    let mut in_process = caller();
    let mut signed: Vec<Signed> = Vec::new();
    for (i, msg) in inputs::messages(&mut rng, REPLAY_SINGLE)
        .into_iter()
        .enumerate()
    {
        let req = (8 << 32) + i as u64;
        attempted += 1;
        let ok = tracer.span("request", None, req, |root| {
            let root = Some(root);
            let wire = tracer.span("wire.sign", root, req, |_| Caller::sign(&mut client, &msg));
            let svc = tracer.span("service.sign", root, req, |_| in_process.sign(&msg));
            let planned = tracer.span("plan.sign", root, req, |_| engine.sign(&sk, &msg));
            stages_b1(&tracer, root, req, &ctx, &sk, &msg);
            let (Ok(wire), Ok(svc), Ok(planned)) = (wire, svc, planned) else {
                return false;
            };
            tracer.span("check.verify", root, req, |_| {
                let valid = vk.verify(&msg, &planned).is_ok();
                let same = wire == svc && svc == planned.to_bytes(&params);
                signed.push((msg.clone(), wire));
                valid && same
            })
        });
        failed += u64::from(!ok);
    }
    if signed.len() < VERIFY_BATCH {
        return Err("replay produced too few signatures to verify".to_string());
    }
    let (wire_items, wire_expect) = verify_items(&signed, &mut rng);
    let wire_pairs: Vec<(&[u8], &[u8])> =
        wire_items.iter().map(|(m, s)| (&m[..], &s[..])).collect();
    for b in 0..REPLAY_BATCHES {
        let req = (9 << 32) + b as u64;
        // The bulk workload signs every batch under a key the engine has
        // not seen; the server workloads under their one tenant key.
        let (bsk, bvk) = match w {
            Workload::Bulk => inputs::key(params, alg, &mut rng),
            _ => (sk.clone(), vk.clone()),
        };
        let bctx = HashCtx::with_alg(params, bsk.pk_seed(), alg);
        let msgs = inputs::messages(&mut rng, BULK_BATCH);
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        attempted += (BULK_BATCH + 5 * VERIFY_BATCH) as u64;
        let bad = tracer.span("request", None, req, |root| {
            let root = Some(root);
            let Ok(sigs) = tracer.span("plan.sign_batch", root, req, |_| {
                engine.sign_batch(&bsk, &refs)
            }) else {
                return (BULK_BATCH + 5 * VERIFY_BATCH) as u64;
            };
            stages_batched(&tracer, root, req, &bctx, &bsk, &refs);
            let unsigned = tracer.span("check.verify", root, req, |_| {
                refs.iter()
                    .zip(&sigs)
                    .filter(|(m, s)| bvk.verify(m, s).is_err())
                    .count() as u64
            });
            let (items, expect) = tracer.span("codec.to_bytes", root, req, |_| {
                let pairs: Vec<Signed> = msgs
                    .iter()
                    .zip(&sigs)
                    .map(|(m, s)| (m.clone(), s.to_bytes(&params)))
                    .collect();
                verify_items(&pairs, &mut rng)
            });
            let (vm, vs): (Vec<&[u8]>, Vec<Signature>) =
                tracer.span("codec.from_bytes", root, req, |_| {
                    items
                        .iter()
                        .map(|(m, s)| {
                            (
                                &m[..],
                                Signature::from_bytes(&params, s)
                                    .expect("same-length signature decodes"),
                            )
                        })
                        .unzip()
                });
            let vrefs: Vec<&Signature> = vs.iter().collect();
            let scalar: Vec<bool> = tracer.span("verify.scalar", root, req, |_| {
                vm.iter()
                    .zip(&vs)
                    .map(|(m, s)| bvk.verify(m, s).is_ok())
                    .collect()
            });
            let lanes: Vec<bool> = tracer.span("verify.lanes", root, req, |_| {
                bvk.verify_many(&vm, &vrefs)
                    .iter()
                    .map(Result::is_ok)
                    .collect()
            });
            let planned: Vec<bool> = tracer.span("verify.planned", root, req, |_| {
                engine
                    .verify_batch(&bvk, &vm, &vs)
                    .map_or_else(|_| Vec::new(), |v| v.iter().map(|o| o.is_valid()).collect())
            });
            let wire = tracer.span("wire.verify_batch", root, req, |_| {
                Caller::verify_batch(&mut client, &wire_pairs)
            });
            let svc = tracer.span("service.verify_batch", root, req, |_| {
                in_process.verify_batch(&wire_pairs)
            });
            let wrong = |got: &[bool], want: &[bool]| {
                if got.len() == want.len() {
                    got.iter().zip(want).filter(|(a, b)| a != b).count() as u64
                } else {
                    want.len() as u64
                }
            };
            unsigned
                + wrong(&scalar, &expect)
                + wrong(&lanes, &expect)
                + wrong(&planned, &expect)
                + wrong(&wire.unwrap_or_default(), &wire_expect)
                + wrong(&svc.unwrap_or_default(), &wire_expect)
        });
        failed += bad;
    }
    let service_stats = service.stats();
    service.shutdown();

    // 4. Hash cores and primitives, called directly on one thread.
    let (sha_dispatch, sha_best) = core_rates(Primitive::Sha256);
    let (keccak_dispatch, keccak_best) = core_rates(Primitive::Keccak);
    let n = params.n;
    let count = 2048usize;
    let adrs: Vec<Address> = (0..count as u32)
        .map(|i| {
            let mut a = Address::new();
            a.set_type(AddressType::WotsHash);
            a.set_keypair(i / 64);
            a.set_chain(i % 64);
            a
        })
        .collect();
    let fmsgs = rng.bytes(count * n);
    let mut fout = vec![0u8; count * n];
    let f_many = rate(count as f64, || ctx.f_many(&adrs, &fmsgs, &mut fout));
    let f_scalar = rate(count as f64, || {
        for i in 0..count {
            ctx.f_into(
                &adrs[i],
                &fmsgs[i * n..(i + 1) * n],
                &mut fout[i * n..(i + 1) * n],
            );
        }
    });
    let seed_bytes = sk.sk_seed();
    let c = coords(&ctx, &sk, b"ledger primitive message");
    let wots_msgs: Vec<Vec<u8>> = (0..params.d).map(|_| rng.bytes(n)).collect();
    let wots_refs: Vec<&[u8]> = wots_msgs.iter().map(Vec::as_slice).collect();
    let wots_adrs: Vec<Address> = (0..params.d as u32)
        .map(|l| {
            let mut a = Address::new();
            a.set_layer(l);
            a.set_tree(c.tree >> (3 * l));
            a.set_type(AddressType::WotsHash);
            a.set_keypair(c.leaf);
            a
        })
        .collect();
    let wots_s = time_median(&tracer, "wots.sign_many", PRIMITIVE_REPS, || {
        std::hint::black_box(wots::sign_many(&ctx, &wots_refs, seed_bytes, &wots_adrs));
    }) / params.d as f64;
    let fors_s = time_median(&tracer, "fors.sign", PRIMITIVE_REPS, || {
        std::hint::black_box(fors::sign(&ctx, &c.md, seed_bytes, &c.adrs));
    });
    let a = params.log_t;
    let leaves = rng.bytes((1usize << a) * n);
    let jobs: Vec<merkle::TreeHashJob> = (0..params.k as u32)
        .map(|t| {
            let mut node_adrs = c.adrs;
            node_adrs.set_type(AddressType::ForsTree);
            merkle::TreeHashJob {
                leaf_idx: t % (1 << a),
                node_adrs,
                leaf_offset: t << a,
            }
        })
        .collect();
    let merkle_s = time_median(&tracer, "merkle.treehash_many", PRIMITIVE_REPS, || {
        std::hint::black_box(merkle::treehash_many(&ctx, a, &jobs, |_, buf| {
            buf.copy_from_slice(&leaves)
        }));
    }) / params.k as f64;
    let ht_s = time_median(&tracer, "hypertree.sign", PRIMITIVE_REPS, || {
        std::hint::black_box(hypertree::sign(
            &ctx,
            &wots_msgs[0],
            seed_bytes,
            c.tree,
            c.leaf,
        ));
    });
    if let Some(rig) = replay_server {
        rig.server.shutdown();
    }
    if let Rig::Server(rig) = &prepared.rig {
        rig.server.shutdown();
    }

    // The span file and the closure of every traced request.
    let spans = tracer.spans();
    let mut requests: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.request)
        .collect();
    requests.sort_unstable();
    requests.dedup();
    let closures: Vec<f64> = requests
        .iter()
        .map(|&r| trace::closure(&spans, r))
        .collect();
    let worst = closures.iter().copied().fold(f64::INFINITY, f64::min);
    let path = format!("{OUT_DIR}/{}-seed{}.spans.json", w.name(), args.seed);
    std::fs::write(
        &path,
        trace::chrome_json(&format!("hero-perfbench {}", w.name()), &spans),
    )
    .map_err(|e| format!("write {path}: {e}"))?;
    eprintln!(
        "perfbench: {} spans in {path}; worst request closure {worst:.4}",
        spans.len()
    );

    // The ledger.
    let b32 = |name: &str| p50_ms(&tracer, name) / BULK_BATCH as f64;
    let stage_sum_b32 =
        b32("stage.b32.fors_sign") + b32("stage.b32.tree_sign") + b32("stage.b32.wots_sign");
    let plan_ms = b32("plan.sign_batch");
    let summary = plan::summarize(&params, BULK_BATCH, &PlanShape::for_batch(BULK_BATCH));
    let best_core = if alg == hero_sphincs::hash::HashAlg::Shake256 {
        keccak_best
    } else {
        sha_best
    } * 1e6;
    let sign_rate = untraced.raw_sign_per_s();
    let cache_lookups = (cache.hits + cache.misses).max(1) as f64;
    let mean = |done: u64, batches: u64| {
        if batches == 0 {
            0.0
        } else {
            done as f64 / batches as f64
        }
    };
    let verify_us = |name: &str| p50_ms(&tracer, name) * 1e3 / VERIFY_BATCH as f64;
    let metrics: Vec<Metric> = vec![
        metric("tier.sha256_dispatch_mcps", sha_dispatch, "Mcomp/s"),
        metric("tier.sha256_best_mcps", sha_best, "Mcomp/s"),
        metric("tier.keccak_dispatch_mpps", keccak_dispatch, "Mperm/s"),
        metric("tier.keccak_best_mpps", keccak_best, "Mperm/s"),
        metric("hash.f_many_mcalls_per_s", f_many / 1e6, "Mcall/s"),
        metric("hash.f_batch_vs_scalar", f_many / f_scalar, "ratio"),
        metric("wots.sign_many_us", wots_s * 1e6, "us"),
        metric("fors.sign_ms", fors_s * 1e3, "ms"),
        metric("merkle.treehash_many_us", merkle_s * 1e6, "us"),
        metric("hypertree.sign_ms", ht_s * 1e3, "ms"),
        metric(
            "stage.b1.fors_sign_ms",
            p50_ms(&tracer, "stage.b1.fors_sign"),
            "ms",
        ),
        metric(
            "stage.b1.tree_sign_ms",
            p50_ms(&tracer, "stage.b1.tree_sign"),
            "ms",
        ),
        metric(
            "stage.b1.wots_sign_ms",
            p50_ms(&tracer, "stage.b1.wots_sign"),
            "ms",
        ),
        metric("stage.b32.fors_sign_ms", b32("stage.b32.fors_sign"), "ms"),
        metric("stage.b32.tree_sign_ms", b32("stage.b32.tree_sign"), "ms"),
        metric("stage.b32.wots_sign_ms", b32("stage.b32.wots_sign"), "ms"),
        metric("plan.ms_per_msg", plan_ms, "ms"),
        metric("plan.overhead_frac", plan_ms / stage_sum_b32, "ratio"),
        metric("plan.nodes_per_batch", summary.nodes() as f64, "count"),
        metric(
            "executor.submissions_per_batch",
            submissions as f64 / calls,
            "count",
        ),
        metric(
            "executor.respawns",
            exec.respawned_workers() as f64,
            "count",
        ),
        metric(
            "cache.hit_ratio",
            cache.hits as f64 / cache_lookups,
            "ratio",
        ),
        metric(
            "cache.misses_per_sign",
            cache.misses as f64 / signs_total,
            "count",
        ),
        metric("cache.evictions", cache.evictions as f64, "count"),
        metric(
            "cache.resident_mb",
            cache.resident_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        metric(
            "service.sign_tax_ms",
            p50_ms(&tracer, "service.sign") - p50_ms(&tracer, "plan.sign"),
            "ms",
        ),
        metric(
            "service.mean_sign_batch",
            mean(shaped.completed, shaped.batches),
            "count",
        ),
        metric(
            "service.mean_verify_batch",
            mean(service_stats.verify_completed, service_stats.verify_batches),
            "count",
        ),
        metric("verify.scalar_us_per_sig", verify_us("verify.scalar"), "us"),
        metric("verify.lanes_us_per_sig", verify_us("verify.lanes"), "us"),
        metric(
            "verify.planned_us_per_sig",
            verify_us("verify.planned"),
            "us",
        ),
        metric(
            "wire.sign_tax_ms",
            p50_ms(&tracer, "wire.sign") - p50_ms(&tracer, "service.sign"),
            "ms",
        ),
        metric(
            "wire.verify_batch_tax_ms",
            p50_ms(&tracer, "wire.verify_batch") - p50_ms(&tracer, "service.verify_batch"),
            "ms",
        ),
        metric("server.rejections", rejections, "count"),
        metric("alloc.per_sign", alloc_count as f64 / signs_traced, "count"),
        metric(
            "alloc.kb_per_sign",
            alloc_bytes as f64 / 1024.0 / signs_traced,
            "KiB",
        ),
        metric(
            "roofline.frac",
            cost::total_sign_compressions(&params) as f64 * sign_rate
                / (exec.workers() as f64 * best_core),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            untraced.raw_sign_per_s() / traced.raw_sign_per_s() - 1.0,
            "ratio",
        ),
        metric("trace.worst_closure", worst, "ratio"),
    ];
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}
