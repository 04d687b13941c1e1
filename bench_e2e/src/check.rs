//! Output checks: order-independent digests of delivered pixels and
//! labels, their single-thread references, and the pixel canary pinned in
//! this file.

use crate::inputs::{dataset_spec, pack_samples, sample};
use pcr_core::{PcrContainer, PcrRecord};
use pcr_datasets::Sample;
use pcr_jpeg::ImageBuf;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// One image in this many joins the pixel digest. Hashing every delivered
/// image would put ~120 MB of hashing per epoch on the consumer thread,
/// which shares the two cores with the loader workers.
const SAMPLE_ONE_IN: u64 = 4;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_words(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(h ^ u64::from_le_bytes(tail) ^ bytes.len() as u64)
}

fn dims_key(img: &ImageBuf) -> u64 {
    (u64::from(img.width()) << 40) ^ (u64::from(img.height()) << 16) ^ u64::from(img.channels())
}

/// A multiset digest of delivered images: the label multiset, the image
/// count, and a wrapping sum of per-image pixel hashes over a fixed,
/// content-keyed sample of the images (so delivery order is irrelevant).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    /// Images added.
    pub images: u64,
    /// Images whose pixels joined `pixel_sum`.
    pub sampled: u64,
    /// Wrapping sum of sampled per-image hashes.
    pub pixel_sum: u64,
    /// Label multiset.
    pub labels: BTreeMap<u32, u64>,
}

impl Digest {
    /// Adds one delivered image and its label. Returns the image's key, a
    /// hash of its dimensions and first 64 bytes, which names it within a
    /// dataset.
    pub fn add(&mut self, img: &ImageBuf, label: u32) -> u64 {
        self.images += 1;
        *self.labels.entry(label).or_default() += 1;
        let data = img.data();
        let key = hash_words(dims_key(img), &data[..data.len().min(64)]);
        if key.is_multiple_of(SAMPLE_ONE_IN) {
            self.sampled += 1;
            self.pixel_sum = self
                .pixel_sum
                .wrapping_add(hash_words(dims_key(img) ^ u64::from(label), data));
        }
        key
    }

    /// Images of `self` that cannot be matched to `expected`: missing or
    /// surplus labels, or — when the pixel digests disagree — every image,
    /// since an order-free digest cannot say which one is wrong.
    pub fn mismatched_images(&self, expected: &Digest) -> u64 {
        let mut diff = 0u64;
        let keys: std::collections::BTreeSet<u32> = self
            .labels
            .keys()
            .chain(expected.labels.keys())
            .copied()
            .collect();
        for k in keys {
            let a = self.labels.get(&k).copied().unwrap_or(0);
            let b = expected.labels.get(&k).copied().unwrap_or(0);
            diff += a.abs_diff(b);
        }
        if self.sampled != expected.sampled || self.pixel_sum != expected.pixel_sum {
            return expected.images.max(self.images);
        }
        diff
    }
}

/// What a stream workload's output is checked against.
pub struct Reference {
    /// Digest of every image.
    pub digest: Digest,
    /// Per record, each image's features and label.
    pub records: Vec<Vec<(Vec<f32>, u32)>>,
    /// Image key (see [`Digest::add`]) to (record, image).
    keys: HashMap<u64, (usize, usize)>,
}

impl Reference {
    /// Features and label of the image whose key is `key`.
    pub fn image(&self, key: u64) -> Option<&(Vec<f32>, u32)> {
        let &(r, i) = self.keys.get(&key)?;
        Some(&self.records[r][i])
    }
}

/// The reference for a stream workload: every record of the container
/// decoded on one thread with [`PcrRecord::decode_image`] at `group`.
pub fn reference(
    dir: &Path,
    group: usize,
    featurize: impl Fn(&ImageBuf) -> Vec<f32>,
) -> Result<Reference, String> {
    let c = PcrContainer::open(dir).map_err(|e| e.to_string())?;
    let mut digest = Digest::default();
    let mut records = Vec::with_capacity(c.num_records());
    let mut keys = HashMap::new();
    for k in 0..c.num_records() {
        let (shard, rec) = c.entry(k).map_err(|e| e.to_string())?;
        let bytes = c.read_record(shard, &rec).map_err(|e| e.to_string())?;
        let r = PcrRecord::parse(&bytes).map_err(|e| e.to_string())?;
        let mut images = Vec::with_capacity(r.num_images());
        for i in 0..r.num_images() {
            let img = r.decode_image(i, group).map_err(|e| e.to_string())?;
            let label = r.meta(i).label;
            keys.insert(digest.add(&img, label), (k, i));
            images.push((featurize(&img), label));
        }
        records.push(images);
    }
    Ok(Reference {
        digest,
        records,
        keys,
    })
}

/// Seed and image count of the pixel canary: two records' worth of the
/// benchmark's own dataset.
const CANARY_SEED: u64 = 1;
const CANARY_IMAGES: usize = 32;
/// Hash of the canary's generated source pixels.
const CANARY_SOURCE: u64 = 0xd69f_066d_e4db_836c;
/// Hash of the canary's decoded pixels at scan groups 1..=10, after
/// packing with the `pcr pack` defaults. The workloads compare the
/// loader's pixels with `decode_image` of the same build, so a change that
/// alters the encoder's or decoder's pixels would pass that check; these
/// pinned values make it fail. A change that is meant to alter pixels
/// updates them.
const CANARY_DECODED: [u64; 10] = [
    0x78c8_a6e6_bf07_868c,
    0x79ad_31b3_207d_62db,
    0x824c_8cd8_ca1c_74d0,
    0x0101_a0a6_f2ea_58ee,
    0x0dcb_efb6_1679_cc70,
    0xeb19_a056_93e9_6a1b,
    0x07aa_1b7e_ca69_3a09,
    0x3878_7f95_261d_495f,
    0xa3ba_88bb_04f8_207f,
    0x3c80_f4f7_6c27_acf4,
];

/// Ordered hash of a sequence of images: dimensions and pixels.
fn images_hash<'a>(images: impl IntoIterator<Item = &'a ImageBuf>) -> u64 {
    images
        .into_iter()
        .fold(0, |h, img| hash_words(h ^ dims_key(img), img.data()))
}

/// The canary's hashes as this build computes them: its source pixels,
/// then its pixels decoded at each scan group from a container packed
/// into `dir` (created, and removed afterwards).
fn canary_hashes(dir: &Path) -> Result<(u64, Vec<u64>), String> {
    let samples: Vec<Sample> = (0..CANARY_IMAGES).map(|i| sample(CANARY_SEED, i)).collect();
    let source = images_hash(samples.iter().map(|s| &s.image));
    let _ = std::fs::remove_dir_all(dir);
    let quality = dataset_spec(CANARY_SEED).jpeg_quality;
    pack_samples(&samples, quality, dir)?;
    let c = PcrContainer::open(dir).map_err(|e| e.to_string())?;
    c.verify().map_err(|e| e.to_string())?;
    let mut bytes = Vec::with_capacity(c.num_records());
    for k in 0..c.num_records() {
        let (shard, rec) = c.entry(k).map_err(|e| e.to_string())?;
        bytes.push(c.read_record(shard, &rec).map_err(|e| e.to_string())?);
    }
    let records = bytes
        .iter()
        .map(|b| PcrRecord::parse(b).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut decoded = Vec::with_capacity(CANARY_DECODED.len());
    for group in 1..=CANARY_DECODED.len() {
        let mut images = Vec::with_capacity(CANARY_IMAGES);
        for r in &records {
            for i in 0..r.num_images() {
                images.push(r.decode_image(i, group).map_err(|e| e.to_string())?);
            }
        }
        decoded.push(images_hash(&images));
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((source, decoded))
}

/// Checks this build's generator, encoder, container writer and decoder
/// against the pinned canary hashes, using `dir` as scratch space.
/// Returns one line per mismatch; empty means the pixels are unchanged.
pub fn canary(dir: &Path) -> Result<Vec<String>, String> {
    let (source, decoded) = canary_hashes(dir)?;
    let mut problems = Vec::new();
    if source != CANARY_SOURCE {
        problems.push(format!(
            "canary source pixels hash {source:#018x}, pinned {CANARY_SOURCE:#018x}"
        ));
    }
    for (g, (&got, &pinned)) in decoded.iter().zip(&CANARY_DECODED).enumerate() {
        if got != pinned {
            problems.push(format!(
                "canary pixels at scan group {} hash {got:#018x}, pinned {pinned:#018x}",
                g + 1
            ));
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(seed: u8, w: u32) -> ImageBuf {
        let data = (0..w * 8 * 3)
            .map(|i| (i as u8).wrapping_mul(seed))
            .collect();
        ImageBuf::from_raw(w, 8, 3, data).unwrap()
    }

    #[test]
    fn digest_ignores_order() {
        let imgs: Vec<ImageBuf> = (1..40).map(|s| img(s, 8 + u32::from(s % 5))).collect();
        let mut a = Digest::default();
        let mut b = Digest::default();
        for (i, im) in imgs.iter().enumerate() {
            a.add(im, (i % 3) as u32);
        }
        for (i, im) in imgs.iter().enumerate().rev() {
            b.add(im, (i % 3) as u32);
        }
        assert_eq!(a, b);
        assert!(a.sampled > 0 && a.sampled < a.images);
        assert_eq!(a.mismatched_images(&b), 0);
    }

    #[test]
    fn missing_label_and_changed_pixels_count_as_failures() {
        let imgs: Vec<ImageBuf> = (1..40).map(|s| img(s, 16)).collect();
        let mut full = Digest::default();
        for im in &imgs {
            full.add(im, 1);
        }
        let mut short = Digest::default();
        for im in &imgs[..imgs.len() - 1] {
            short.add(im, 1);
        }
        // Dropping an unsampled image is caught by the label multiset
        // alone; a sampled one also changes the pixel sum.
        assert!(short.mismatched_images(&full) >= 1);

        let mut changed = Digest::default();
        for im in &imgs {
            let mut im = im.clone();
            let last = im.data().len() - 1;
            im.data_mut()[last] ^= 1; // past the 64-byte sampling key
            changed.add(&im, 1);
        }
        assert_eq!(changed.mismatched_images(&full), imgs.len() as u64);
    }

    #[test]
    fn canary_pixels_match_the_pinned_hashes() {
        let dir = crate::inputs::work_dir().join(format!("test-canary-{}", std::process::id()));
        assert_eq!(canary(&dir).unwrap(), Vec::<String>::new());
        assert!(!dir.exists());
    }
}
