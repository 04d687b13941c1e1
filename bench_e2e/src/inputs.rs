//! Benchmark inputs: the seeded dataset, its packed container, and the
//! on-disk cache both live in, outside every timed region.
//!
//! Inputs are produced by a child process (`--prepare <seed>`) so that
//! generating and packing never show in the measuring process's peak
//! memory, whether or not the cache already held them. Cache entries are
//! keyed by seed *and* by a hash of the benchmark executable, so a
//! container is only ever reused by the build that wrote it.

use pcr_core::container::{write_container_versioned, ContainerManifest};
use pcr_core::{PcrDatasetBuilder, SampleMeta, CONTAINER_VERSION, DEFAULT_NUM_GROUPS};
use pcr_datasets::{
    generate_image, DatasetSpec, Sample, Scale, IMAGES_PER_RECORD, RECORDS_PER_SHARD,
};
use pcr_jpeg::ImageBuf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Cache entries of each kind kept on disk (oldest evicted first): about
/// 1.5 GB of image sets and 1 GB of containers.
const KEEP_IMAGE_SETS: usize = 12;
const KEEP_CONTAINERS: usize = 24;
/// Threads that generate the input images (outside all timing).
const PREP_THREADS: usize = 2;

const IMAGES_MAGIC: &[u8; 8] = b"PCRBIMG1";
/// Largest image the cache file may describe (bounds the allocation a
/// damaged file can request).
const MAX_IMAGE_BYTES: u64 = 64 << 20;

/// Working directory of the benchmark: cache, results, traces, canary.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// FNV-1a over 8-byte words of the running executable: identifies the
/// build, and so the library code, that produced a cache entry.
pub fn build_id() -> &'static str {
    static ID: OnceLock<String> = OnceLock::new();
    ID.get_or_init(|| {
        let exe = std::env::current_exe()
            .and_then(fs::read)
            .unwrap_or_default();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for chunk in exe.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h = (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    })
}

/// The dataset every workload uses: HAM10000-like at full scale (1600
/// training images, ~160 px, quality 100, 7 classes), seeded by the
/// workload seed.
pub fn dataset_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        seed,
        ..DatasetSpec::ham10000_like(Scale::Full)
    }
}

/// Paths of one seed's prepared inputs.
pub struct Prepared {
    /// Raw generated images (label, id, pixels).
    pub images: PathBuf,
    /// The container packed from them with the `pcr pack` defaults.
    pub container: PathBuf,
}

fn prepared_paths(seed: u64) -> Prepared {
    let w = work_dir().join("cache");
    Prepared {
        images: w.join(format!("images-s{seed}-{}.bin", build_id())),
        container: w.join(format!("container-s{seed}-{}", build_id())),
    }
}

/// Returns the seed's prepared inputs, running `--prepare` in a child
/// process first if the cache lacks them.
pub fn ensure_prepared(seed: u64) -> Result<Prepared, String> {
    let p = prepared_paths(seed);
    if !(p.images.is_file() && p.container.is_dir()) {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let status = std::process::Command::new(exe)
            .args(["--prepare", &seed.to_string()])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn --prepare: {e}"))?;
        if !status.success() {
            return Err(format!("--prepare {seed} failed: {status}"));
        }
    }
    if p.images.is_file() && p.container.is_dir() {
        Ok(p)
    } else {
        Err(format!(
            "--prepare {seed} left no inputs in {}",
            work_dir().display()
        ))
    }
}

/// Child-process entry: generates (or reloads) the seed's images and packs
/// them, writing both atomically into the cache.
pub fn prepare(seed: u64) -> Result<(), String> {
    let p = prepared_paths(seed);
    let dir = p
        .images
        .parent()
        .expect("cache paths have a parent")
        .to_path_buf();
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let samples = if p.images.is_file() {
        load_images(&p.images)?
    } else {
        let samples = generate(seed);
        let tmp = dir.join(format!(".tmp-images-{}", std::process::id()));
        save_images(&tmp, &samples)?;
        fs::rename(&tmp, &p.images).map_err(|e| format!("rename images: {e}"))?;
        samples
    };
    if !p.container.is_dir() {
        let tmp = dir.join(format!(".tmp-container-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        let quality = dataset_spec(seed).jpeg_quality;
        pack_samples(&samples, quality, &tmp)?;
        fs::rename(&tmp, &p.container).map_err(|e| format!("rename container: {e}"))?;
    }
    evict(&dir, "images-", KEEP_IMAGE_SETS);
    evict(&dir, "container-", KEEP_CONTAINERS);
    Ok(())
}

/// Packs `samples` into a v3 container at `out` exactly as `pcr pack` does
/// with its defaults (16 images per record, 10 scan groups, 8 records per
/// shard).
pub fn pack_samples(
    samples: &[Sample],
    quality: u8,
    out: &Path,
) -> Result<ContainerManifest, String> {
    let name = dataset_spec(0).name;
    let mut builder =
        PcrDatasetBuilder::new(IMAGES_PER_RECORD, DEFAULT_NUM_GROUPS).with_name_prefix(&name);
    for s in samples {
        let meta = SampleMeta {
            label: s.label,
            id: s.id.clone(),
        };
        builder
            .add_image(meta, &s.image, quality)
            .map_err(|e| e.to_string())?;
    }
    let dataset = builder.finish().map_err(|e| e.to_string())?;
    write_container_versioned(&dataset, out, RECORDS_PER_SHARD, CONTAINER_VERSION)
        .map_err(|e| e.to_string())
}

/// Runs `f(i)` for `i` in `0..n` on [`PREP_THREADS`] threads and returns
/// the results in index order.
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PREP_THREADS)
            .map(|t| scope.spawn(move || (t..n).step_by(PREP_THREADS).map(|i| (i, f(i))).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("input preparation thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, T)> = parts.iter_mut().flat_map(std::mem::take).collect();
    all.sort_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, v)| v).collect()
}

/// The seed's training images, drawn in parallel by [`sample`].
fn generate(seed: u64) -> Vec<Sample> {
    par_map(dataset_spec(seed).train_images, |i| sample(seed, i))
}

/// Training image `i` of the seed's dataset: `DatasetSpec::ham10000_like`'s
/// generator with one RNG per image (seeded from the workload seed and the
/// image index), so images can be drawn independently of each other.
pub fn sample(seed: u64, i: usize) -> Sample {
    let spec = dataset_spec(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let label = (i % spec.num_classes) as u32;
    Sample {
        image: generate_image(&spec, label, &mut rng),
        label,
        id: format!("{}-train-{i:05}", spec.name),
    }
}

/// Deletes all but the `keep` newest entries of `dir` whose names start
/// with `prefix`.
fn evict(dir: &Path, prefix: &str, keep: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut found: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    found.sort();
    let excess = found.len().saturating_sub(keep);
    for (_, path) in found.into_iter().take(excess) {
        let _ = if path.is_dir() {
            fs::remove_dir_all(&path)
        } else {
            fs::remove_file(&path)
        };
    }
}

fn save_images(path: &Path, samples: &[Sample]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut w = BufWriter::new(fs::File::create(path).map_err(err)?);
    w.write_all(IMAGES_MAGIC).map_err(err)?;
    w.write_all(&(samples.len() as u64).to_le_bytes())
        .map_err(err)?;
    for s in samples {
        let id = s.id.as_bytes();
        w.write_all(&s.label.to_le_bytes()).map_err(err)?;
        w.write_all(&(id.len() as u32).to_le_bytes()).map_err(err)?;
        w.write_all(id).map_err(err)?;
        w.write_all(&s.image.width().to_le_bytes()).map_err(err)?;
        w.write_all(&s.image.height().to_le_bytes()).map_err(err)?;
        w.write_all(&[s.image.channels()]).map_err(err)?;
        w.write_all(s.image.data()).map_err(err)?;
    }
    w.flush().map_err(err)?;
    w.get_ref().sync_all().map_err(err)
}

/// Reads an image set written by the `--prepare` child.
pub fn load_images(path: &Path) -> Result<Vec<Sample>, String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut r = BufReader::new(fs::File::open(path).map_err(err)?);
    let u32_at = |r: &mut BufReader<fs::File>| -> Result<u32, String> {
        let mut b = [0u8; 4];
        r.read_exact(&mut b).map_err(err)?;
        Ok(u32::from_le_bytes(b))
    };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(err)?;
    if &magic != IMAGES_MAGIC {
        return Err(format!("{}: not an image set", path.display()));
    }
    let mut count = [0u8; 8];
    r.read_exact(&mut count).map_err(err)?;
    let count = u64::from_le_bytes(count);
    let mut samples = Vec::new();
    for _ in 0..count {
        let label = u32_at(&mut r)?;
        let id_len = u32_at(&mut r)?;
        if id_len > 4096 {
            return Err(format!(
                "{}: id length {id_len} out of range",
                path.display()
            ));
        }
        let mut id = vec![0u8; id_len as usize];
        r.read_exact(&mut id).map_err(err)?;
        let (w, h) = (u32_at(&mut r)?, u32_at(&mut r)?);
        let mut ch = [0u8; 1];
        r.read_exact(&mut ch).map_err(err)?;
        let len = u64::from(w) * u64::from(h) * u64::from(ch[0]);
        if len > MAX_IMAGE_BYTES {
            return Err(format!(
                "{}: image of {len} bytes out of range",
                path.display()
            ));
        }
        let mut data = vec![0u8; len as usize];
        r.read_exact(&mut data).map_err(err)?;
        let image = ImageBuf::from_raw(w, h, ch[0], data).map_err(|e| e.to_string())?;
        let id = String::from_utf8(id).map_err(|e| format!("{}: {e}", path.display()))?;
        samples.push(Sample { image, label, id });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_set_round_trips() {
        let dir = work_dir().join(format!("test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.bin");
        let samples: Vec<Sample> = (0..3u32)
            .map(|i| Sample {
                image: ImageBuf::from_raw(2 + i, 3, 3, vec![i as u8; (6 + 3 * i as usize) * 3])
                    .unwrap(),
                label: i,
                id: format!("img-{i}"),
            })
            .collect();
        save_images(&path, &samples).unwrap();
        let back = load_images(&path).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!((a.label, &a.id, &a.image), (b.label, &b.id, &b.image));
        }
        fs::write(&path, b"garbage").unwrap();
        assert!(load_images(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seed_reaches_the_dataset_spec() {
        let a = dataset_spec(7);
        assert_eq!(
            (a.seed, a.train_images, a.num_classes, a.jpeg_quality),
            (7, 1600, 7, 100)
        );
        assert_ne!(a, dataset_spec(8));
    }
}
