//! The stream workloads: a packed container opened with
//! `open_container_store`, streamed by the two-worker `ParallelLoader`
//! into a closed-loop training step, plus — in traced runs — a
//! single-thread ledger replay of the same epochs.

use crate::check::{reference, Digest};
use crate::inputs::ensure_prepared;
use crate::report::Report;
use crate::stats::{self, blocked_tail, median, tail};
use crate::trace::Tracer;
use crate::train::{featurize, reference_loss, Trainer, BATCH};
use pcr_core::{PcrContainer, PcrRecord};
use pcr_jpeg::ImageBuf;
use pcr_loader::{
    open_container_store, DecodeMode, IoModel, LoaderConfig, ParallelConfig, ParallelLoader,
    ReadPlanner, RecordSource, RetryPolicy, ShardStoreConfig, ShardedSource,
};
use pcr_metrics::JsonValue;
use pcr_storage::{Clock, DeviceProfile, FaultPlan, ObjectStore};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loader workers: one per core of the two-vCPU reference machine.
const WORKERS: usize = 2;
/// Container opens per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Epochs the traced run's single-thread ledger replays.
const LEDGER_EPOCHS: u64 = 2;
/// The ledger's stage self times must add up to its wall time within
/// this share.
const LEDGER_TOLERANCE: f64 = 0.05;
/// Immediate re-reads the ledger allows a transiently failing site.
const MAX_LEDGER_RETRIES: u64 = 3;

/// A stream workload's fixed parameters.
pub struct StreamWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Scan group read.
    pub scan_group: usize,
    /// Device, page cache and readahead of the opened store.
    pub store: ShardStoreConfig,
    /// Fault plan spec (without seed) installed for each epoch, if any.
    pub faults: Option<&'static str>,
    /// Epoch length assumed when converting `--seconds` into a fixed
    /// epoch count, so that count never depends on measured speed.
    pub nominal_epoch_s: f64,
    /// Fewest epochs a run makes (enough batches for a p95 with ten
    /// samples beyond it).
    pub min_epochs: u64,
}

/// `stream_full_local`: full fidelity from a local NVMe-class device whose
/// page cache holds the whole container — decode-bound.
pub fn full_local() -> StreamWorkload {
    StreamWorkload {
        name: "stream_full_local",
        scan_group: 10,
        store: ShardStoreConfig::default(),
        faults: None,
        nominal_epoch_s: 1.5,
        min_epochs: 5,
    }
}

/// `stream_low_remote`: scan group 1 from a remote object store with the
/// page cache off, 256 KiB readahead and a seeded fault plan —
/// storage-bound.
pub fn low_remote() -> StreamWorkload {
    StreamWorkload {
        name: "stream_low_remote",
        scan_group: 1,
        store: ShardStoreConfig {
            profile: DeviceProfile::remote_object_store(),
            cache_bytes: 0,
            readahead: 256 << 10,
            verify: true,
        },
        faults: Some("transient=0.02,latency=0.05,latency_factor=4"),
        nominal_epoch_s: 5.0,
        min_epochs: 4,
    }
}

impl StreamWorkload {
    fn epochs(&self, seconds: f64) -> u64 {
        ((seconds / self.nominal_epoch_s).round() as u64).max(self.min_epochs)
    }

    /// Installs the workload's fault plan for `epoch`. The plan is
    /// reseeded every epoch, so latency spikes strike different reads each
    /// epoch, as they would on a shared remote store, rather than the same
    /// records every epoch of a seed.
    fn install_faults(&self, store: &ObjectStore, seed: u64, epoch: u64) -> Result<(), String> {
        if let Some(spec) = self.faults {
            let plan_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ epoch;
            store.set_fault_plan(Some(FaultPlan::parse_spec(&format!(
                "seed={plan_seed},{spec}"
            ))?));
        }
        Ok(())
    }
}

struct Opened {
    store: Arc<ObjectStore>,
    source: Arc<ShardedSource>,
}

/// One timed container open. Untraced it is `open_container_store`;
/// traced it is the same three steps through their public parts, each in
/// its own span.
fn open(dir: &Path, cfg: &ShardStoreConfig, tracer: &mut Tracer) -> Result<Opened, String> {
    if !tracer.enabled() {
        let o = open_container_store(dir, cfg).map_err(|e| e.to_string())?;
        return Ok(Opened {
            store: o.store,
            source: o.source,
        });
    }
    let setup = tracer.begin("setup");
    let container = tracer
        .time("open", || PcrContainer::open(dir))
        .map_err(|e| e.to_string())?;
    let store = tracer.time("verify_load", || -> Result<_, String> {
        let store = Arc::new(ObjectStore::with_cache(
            cfg.profile.clone(),
            cfg.cache_bytes,
        ));
        store.set_readahead(cfg.readahead);
        for i in 0..container.shards.len() {
            let bytes = if cfg.verify {
                container.read_shard_verified(i)
            } else {
                container.read_shard(i)
            }
            .map_err(|e| e.to_string())?;
            store.put(&container.manifest.shards[i].file_name, bytes);
        }
        Ok(store)
    })?;
    let source = tracer
        .time("source_build", || ShardedSource::from_container(&container))
        .map_err(|e| e.to_string())?;
    tracer.end(setup);
    Ok(Opened {
        store,
        source: Arc::new(source),
    })
}

/// What one streamed epoch delivered and cost.
struct EpochOut {
    traced: bool,
    wall_s: f64,
    images: u64,
    /// Key of every delivered image, in delivery order.
    keys: Vec<u64>,
    loss: f64,
    failed: u64,
    prefix_bytes: u64,
    decode_nanos: u64,
    images_decoded: u64,
    io_wait_nanos: u64,
    retries: u64,
    backoff_s: f64,
    degraded: u64,
    quarantined: u64,
}

impl EpochOut {
    fn rate(&self) -> f64 {
        self.images as f64 / self.wall_s
    }
}

fn run_epoch(
    loader: &ParallelLoader<ShardedSource>,
    epoch: u64,
    trainer: &mut Trainer,
    reference: &Digest,
    waits_ms: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> EpochOut {
    let span = tracer.begin("epoch");
    let t0 = Instant::now();
    let stream = loader.spawn_epoch(epoch);
    let mut digest = Digest::default();
    let mut keys = Vec::with_capacity(reference.images as usize);
    let (mut loss_sum, mut seen) = (0.0f64, 0usize);
    loop {
        let wait = tracer.begin("wait");
        let tw = Instant::now();
        let batch = stream.batches.recv();
        let waited = tw.elapsed();
        tracer.end(wait);
        let Ok(b) = batch else { break };
        waits_ms.push(waited.as_secs_f64() * 1e3);
        for (img, &label) in b.images.iter().zip(&b.labels) {
            keys.push(digest.add(img, label));
        }
        let (loss, n) = trainer.step(&b.images, &b.labels, tracer);
        loss_sum += loss;
        seen += n;
    }
    let stats = Arc::clone(&stream.stats);
    stream.join();
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.end(span);
    let faults = stats.fault_report();
    EpochOut {
        traced: tracer.enabled(),
        wall_s,
        images: seen as u64,
        keys,
        loss: loss_sum / seen.max(1) as f64,
        failed: digest.mismatched_images(reference),
        prefix_bytes: stats.bytes_read.load(Ordering::Relaxed),
        decode_nanos: stats.decode_nanos.load(Ordering::Relaxed),
        images_decoded: stats.images_decoded.load(Ordering::Relaxed),
        io_wait_nanos: stats.io_wait_nanos.load(Ordering::Relaxed),
        retries: faults.retries,
        backoff_s: faults.backoff_s,
        degraded: faults.degraded_records,
        quarantined: faults.quarantined_records,
    }
}

/// Output of the single-thread ledger replay.
struct Ledger {
    wall_s: f64,
    /// Self time per stage (the root's own, unattributed time excluded).
    stages: Vec<(&'static str, f64)>,
    coverage: f64,
    covered: bool,
    records: u64,
    images: u64,
    read_calls: u64,
    services_ms: Vec<f64>,
    failed: u64,
}

/// Replays `LEDGER_EPOCHS` epochs of the workload's order on this thread
/// through the public per-layer functions, each call in its own span:
/// plan, `ObjectStore::read` on the wall clock (retried on transient
/// faults) with the modeled service time slept, record parse and prefix
/// assembly, entropy decode, reconstruction, batch assembly, featurize
/// and step.
fn ledger(
    o: &Opened,
    w: &StreamWorkload,
    seed: u64,
    trainer: &mut Trainer,
    reference: &Digest,
    tracer: &mut Tracer,
) -> Result<Ledger, String> {
    tracer.set_enabled(true);
    let planner = ReadPlanner {
        scan_group: w.scan_group,
        shuffle: true,
        seed,
    };
    let n = o.source.num_records();
    let mut pool: Vec<Vec<i16>> = Vec::new();
    let mut jpeg = Vec::new();
    let (mut records, mut images, mut read_calls, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut services_ms = Vec::new();
    let root = tracer.begin("ledger");
    for epoch in 0..LEDGER_EPOCHS {
        w.install_faults(&o.store, seed, epoch)?;
        let mut digest = Digest::default();
        let mut batch: Vec<ImageBuf> = Vec::with_capacity(BATCH);
        let mut labels: Vec<u32> = Vec::with_capacity(BATCH);
        for idx in planner.epoch_iter(n, epoch) {
            let plan = tracer.time("plan", || planner.plan(&*o.source, idx));
            let mut attempts = 0;
            let read = loop {
                attempts += 1;
                let r = tracer.time("read", || {
                    o.store.read(Clock::Wall, plan.name, plan.offset, plan.len)
                });
                match r {
                    Ok(read) => break read,
                    Err(e) if e.is_retryable() && attempts <= MAX_LEDGER_RETRIES => continue,
                    Err(e) => return Err(format!("ledger read: {e}")),
                }
            };
            read_calls += attempts;
            let service = read.finish - read.start;
            services_ms.push(service * 1e3);
            tracer.time("io_wait", || {
                std::thread::sleep(Duration::from_secs_f64(service.max(0.0)))
            });
            let rec = tracer
                .time("parse", || PcrRecord::parse(&read.data))
                .map_err(|e| e.to_string())?;
            records += 1;
            let g = rec.available_groups().min(w.scan_group).max(1);
            for i in 0..rec.num_images() {
                tracer
                    .time("parse", || rec.jpeg_at_group_into(i, g, &mut jpeg))
                    .map_err(|e| e.to_string())?;
                let coeffs = tracer
                    .time("entropy", || {
                        pcr_jpeg::decode_coeffs_pooled(&jpeg, &mut pool)
                    })
                    .map_err(|e| e.to_string())?;
                let img = tracer
                    .time("reconstruct", || {
                        let img = coeffs.to_image();
                        coeffs.coeffs.recycle_into(&mut pool);
                        img
                    })
                    .map_err(|e| e.to_string())?;
                images += 1;
                let label = rec.meta(i).label;
                let full = tracer.time("assemble", || {
                    digest.add(&img, label);
                    batch.push(img);
                    labels.push(label);
                    batch.len() == BATCH
                });
                if full {
                    trainer.step(&batch, &labels, tracer);
                    batch.clear();
                    labels.clear();
                }
            }
        }
        if !batch.is_empty() {
            trainer.step(&batch, &labels, tracer);
        }
        failed += digest.mismatched_images(reference);
    }
    tracer.end(root);
    let root = Tracer::index(root).expect("the ledger always records");
    let wall = tracer.spans()[root].duration();
    let stages: Vec<(&'static str, u64)> = stats::stage_totals(tracer.spans(), root)
        .into_iter()
        .filter(|&(name, _)| name != "ledger")
        .collect();
    let nanos: Vec<u64> = stages.iter().map(|&(_, t)| t).collect();
    let (coverage, covered) = stats::ledger_sum_check(&nanos, wall, LEDGER_TOLERANCE);
    Ok(Ledger {
        wall_s: wall as f64 / 1e9,
        stages: stages
            .into_iter()
            .map(|(name, t)| (name, t as f64 / 1e9))
            .collect(),
        coverage,
        covered,
        records,
        images,
        read_calls,
        services_ms,
        failed,
    })
}

/// Runs a stream workload and fills `r`: end-to-end metrics untraced,
/// per-layer metrics traced.
pub fn run(
    w: &StreamWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    r: &mut Report,
) -> Result<(), String> {
    let phase = Instant::now();
    let prepared = ensure_prepared(seed)?;
    r.note("prepare_s", JsonValue::F64(phase.elapsed().as_secs_f64()));
    let phase = Instant::now();
    let reference = reference(&prepared.container, w.scan_group, featurize)?;
    r.note("reference_s", JsonValue::F64(phase.elapsed().as_secs_f64()));
    let mut tracer = Tracer::new(traced);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut opened = None;
    for _ in 0..SETUP_REPS {
        drop(opened.take());
        let t = Instant::now();
        let o = open(&prepared.container, &w.store, &mut tracer)?;
        setup_s.push(t.elapsed().as_secs_f64());
        opened = Some(o);
    }
    let o = opened.expect("at least one set-up");
    let loader = ParallelLoader::new(
        Arc::clone(&o.store),
        Arc::clone(&o.source),
        ParallelConfig {
            loader: LoaderConfig {
                threads: WORKERS,
                scan_group: w.scan_group,
                shuffle: true,
                seed,
                decode: DecodeMode::Real,
                retry: RetryPolicy {
                    seed,
                    ..RetryPolicy::default()
                },
            },
            batch_size: BATCH,
            io: IoModel::EmulatedLatency,
            ..ParallelConfig::default()
        },
    );
    let mut trainer = Trainer::new(seed);

    // Timed epochs. A traced run alternates traced and untraced epochs so
    // the tracing overhead is measured under the same conditions.
    let dev0 = o.store.device_stats();
    let phase = Instant::now();
    let epochs = w.epochs(seconds);
    let mut waits_ms = Vec::new();
    let mut outs = Vec::new();
    for epoch in 0..epochs {
        tracer.set_enabled(traced && epoch % 2 == 1);
        w.install_faults(&o.store, seed, epoch)?;
        outs.push(run_epoch(
            &loader,
            epoch,
            &mut trainer,
            &reference.digest,
            &mut waits_ms,
            &mut tracer,
        ));
    }
    let dev = o.store.device_stats();
    r.note("epochs_s", JsonValue::F64(phase.elapsed().as_secs_f64()));
    let (dev_reads, dev_bytes) = (dev.reads - dev0.reads, dev.bytes - dev0.bytes);
    let injected = o.store.fault_stats();
    let hit_rate = o.store.cache_hit_rate();

    let sum = |f: &dyn Fn(&EpochOut) -> f64| outs.iter().map(f).sum::<f64>();
    let delivered = sum(&|e| e.images as f64);
    let wall = sum(&|e| e.wall_s);
    let per_epoch = |total: f64| total / epochs as f64;
    r.attempted += epochs * reference.digest.images;
    r.failed += outs.iter().map(|e| e.failed).sum::<u64>();
    let degraded = sum(&|e| e.degraded as f64);
    let quarantined = sum(&|e| e.quarantined as f64);
    if degraded + quarantined > 0.0 {
        r.problem(format!(
            "{degraded} record(s) degraded, {quarantined} quarantined"
        ));
    }
    let p50 = tail(&waits_ms, 50.0).ok_or("too few minibatches for a median")?;
    let p95 = blocked_tail(&waits_ms, 95.0).ok_or("too few minibatches for a tail")?;
    r.note("epochs", JsonValue::U64(epochs));
    r.note("batch_waits", JsonValue::U64(waits_ms.len() as u64));
    r.note("batch_wait_tail_percentile", JsonValue::F64(p95.percentile));
    r.note(
        "epoch_images_per_s",
        JsonValue::Array(outs.iter().map(|e| JsonValue::F64(e.rate())).collect()),
    );
    r.note(
        "setup_s_samples",
        JsonValue::Array(setup_s.iter().map(|&s| JsonValue::F64(s)).collect()),
    );

    if !traced {
        // Divided by the same model trained on the single-thread reference
        // decode of the very minibatches the loader delivered, in delivery
        // order, so neither the seed's dataset nor the workers' timing
        // moves the ratio: only pixels that differ from the reference do.
        // An image that matches no reference image is left out, which
        // moves it too (and fails its epoch's output check).
        let ref_loss = reference_loss(seed, epochs, |e| {
            outs[e as usize]
                .keys
                .iter()
                .filter_map(|&k| reference.image(k))
        });
        r.note(
            "train_loss_last_epoch",
            JsonValue::F64(outs.last().map_or(f64::NAN, |e| e.loss)),
        );
        r.note("reference_loss_last_epoch", JsonValue::F64(ref_loss));
        r.metric("images_per_s", delivered / wall);
        r.metric("bytes_per_image", dev_bytes as f64 / delivered);
        r.metric("batch_wait_p50_ms", p50.value);
        r.metric("batch_wait_p95_ms", p95.value);
        r.metric(
            "train_loss_final",
            outs.last().map_or(f64::NAN, |e| e.loss) / ref_loss,
        );
        r.metric("setup_s", median(&setup_s));
        return Ok(());
    }

    let prefix_bytes = sum(&|e| e.prefix_bytes as f64);
    let decode_nanos = sum(&|e| e.decode_nanos as f64);
    let io_wait_nanos = sum(&|e| e.io_wait_nanos as f64);
    r.metric("storage.device_reads", per_epoch(dev_reads as f64));
    r.metric("storage.overfetch_ratio", dev_bytes as f64 / prefix_bytes);
    r.metric("storage.cache_hit_rate", hit_rate);
    r.metric("storage.io_wait_s", per_epoch(io_wait_nanos / 1e9));
    let injected_all = injected.injected_errors() + injected.latency_spikes;
    r.metric("storage.injected_faults", per_epoch(injected_all as f64));
    r.metric(
        "loader.worker_busy_frac",
        (decode_nanos + io_wait_nanos) / 1e9 / (WORKERS as f64 * wall),
    );
    r.metric(
        "loader.stall_frac",
        waits_ms.iter().sum::<f64>() / 1e3 / wall,
    );
    r.metric("loader.retries", per_epoch(sum(&|e| e.retries as f64)));
    r.metric("loader.backoff_s", per_epoch(sum(&|e| e.backoff_s)));
    r.metric("loader.degraded_records", degraded);
    r.metric("loader.quarantined_records", quarantined);
    r.metric("core.open_s", median(&tracer.durations_s("open")));
    r.metric(
        "core.verify_load_s",
        median(&tracer.durations_s("verify_load")),
    );
    r.metric(
        "core.source_build_s",
        median(&tracer.durations_s("source_build")),
    );
    r.metric(
        "jpeg.decode_us_per_image",
        decode_nanos / 1e3 / sum(&|e| e.images_decoded as f64),
    );
    r.metric(
        "nn.featurize_ms_per_batch",
        tracer.total_s("featurize") * 1e3 / tracer.count("featurize") as f64,
    );
    r.metric(
        "nn.step_ms_per_batch",
        tracer.total_s("step") * 1e3 / tracer.count("step") as f64,
    );
    // Epoch 0 (untraced) warms the page cache and meets every
    // first-attempt fault, so only later epochs are compared.
    let rates_where = |traced: bool| -> Vec<f64> {
        outs.iter()
            .skip(1)
            .filter(|e| e.traced == traced)
            .map(EpochOut::rate)
            .collect()
    };
    let (traced_rates, plain_rates) = (rates_where(true), rates_where(false));
    let (traced_rate, plain_rate) = (median(&traced_rates), median(&plain_rates));
    r.metric("trace.images_per_s", traced_rate);
    r.metric("trace.untraced_images_per_s", plain_rate);
    r.metric("trace.overhead_frac", 1.0 - traced_rate / plain_rate);

    let l = ledger(&o, w, seed, &mut trainer, &reference.digest, &mut tracer)?;
    r.attempted += l.images;
    r.failed += l.failed;
    let stage = |name: &str| l.stages.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1);
    r.metric(
        "storage.read_call_us",
        stage("read") * 1e6 / l.read_calls as f64,
    );
    let s50 = tail(&l.services_ms, 50.0).ok_or("too few ledger reads")?;
    let s95 = tail(&l.services_ms, 95.0).ok_or("too few ledger reads")?;
    r.metric("storage.service_ms_p50", s50.value);
    r.metric("storage.service_ms_p95", s95.value);
    r.note("service_tail_percentile", JsonValue::F64(s95.percentile));
    r.note("ledger_reads", JsonValue::U64(l.services_ms.len() as u64));
    r.metric(
        "core.parse_us_per_record",
        stage("parse") * 1e6 / l.records as f64,
    );
    r.metric(
        "jpeg.entropy_us_per_image",
        stage("entropy") * 1e6 / l.images as f64,
    );
    r.metric(
        "jpeg.reconstruct_us_per_image",
        stage("reconstruct") * 1e6 / l.images as f64,
    );
    ledger_metrics(r, l.wall_s, &l.stages, l.coverage, LEDGER_EPOCHS as f64);
    if !l.covered {
        r.problem(format!(
            "ledger stages cover {:.3} of its wall time",
            l.coverage
        ));
    }
    write_trace(w.name, seed, &tracer);
    Ok(())
}

/// Records the ledger's wall time, stage self times (both per epoch) and
/// the share of wall time they cover.
fn ledger_metrics(
    r: &mut Report,
    wall_s: f64,
    stages: &[(&'static str, f64)],
    coverage: f64,
    per: f64,
) {
    r.metric("ledger.wall_s", wall_s / per);
    r.metric("ledger.coverage", coverage);
    for &(name, secs) in stages {
        if let Some(metric) = LEDGER_STAGES.iter().find(|m| m.0 == name) {
            r.metric(metric.1, secs / per);
        }
    }
    r.note(
        "ledger_stages_s",
        JsonValue::object(stages.iter().map(|&(n, s)| (n, JsonValue::F64(s / per)))),
    );
}

/// Ledger stage span names and the per-layer metric each reports as.
pub const LEDGER_STAGES: &[(&str, &str)] = &[
    ("plan", "ledger.plan_s"),
    ("read", "ledger.read_s"),
    ("io_wait", "ledger.io_wait_s"),
    ("parse", "ledger.parse_s"),
    ("entropy", "ledger.entropy_s"),
    ("reconstruct", "ledger.reconstruct_s"),
    ("assemble", "ledger.assemble_s"),
    ("featurize", "ledger.featurize_s"),
    ("step", "ledger.step_s"),
];

/// Writes the run's spans as JSON lines under the work directory.
fn write_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = crate::inputs::work_dir().join("traces");
    let path = dir.join(format!("{workload}-s{seed}.jsonl"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        eprintln!("warning: trace not written to {}: {e}", path.display());
    }
}
