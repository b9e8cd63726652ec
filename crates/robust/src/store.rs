//! One on-disk store for every persistent cache in the workspace.
//!
//! A [`Store`] maps a fingerprint-keyed entry name to bytes. Entries live
//! in 16 `shard-x/` directories, picked by the top hex digit of the
//! caller's fingerprint, so concurrent writers (fleet workers, several
//! processes sharing one root) rarely touch the same shard. Each shard
//! keeps its own write-order journal (`index.log`) and `quarantine/`:
//!
//! ```text
//! root/
//!   shard-0/ … shard-f/
//!     <entry name>       "# store v1 <len> <fnv>" line, then the payload
//!     index.log          entry names in write order, one line per write
//!     quarantine/NNNN-<entry name>   at most 64 files
//! ```
//!
//! * Every entry is published by [`write_atomic`] (a unique temp name,
//!   then a rename), so readers never take locks and only ever see an
//!   absent entry or a complete one.
//! * Every entry carries one FNV-1a checksum ([`fnv1a`]) and the length of
//!   its whole payload. A read that finds anything else at an entry's
//!   path — a flipped byte, a truncation, an older format — moves the
//!   file aside with [`quarantine`] and reports [`Lookup::Corrupt`].
//! * After each write the written shard is evicted oldest-first, in
//!   journal order (an entry is as new as its latest line), until it
//!   holds at most `4096 / 16` entries and `64 MiB / 16` bytes. Files the
//!   journal does not name (a lost journal, a concurrent writer's entry)
//!   count as oldest, in name order; nothing reads mtimes or the clock.
//!   A write appends one journal line; an eviction, or a journal grown to
//!   twice the live entries, rewrites it atomically to the survivors.
//!
//! The store keeps no counters and no state beyond its root: each call
//! returns its outcome ([`Lookup`], evictions per [`Store::put`]) and the
//! caller counts. All I/O is best-effort — a cache can cost time, never
//! correctness.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a offset basis: the `acc` to start an [`fnv1a`] digest from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over `bytes`, continuing from `acc` (start from
/// [`FNV_OFFSET`]). The workspace's byte-wise deterministic (machine- and
/// run-independent) hash, since hash-collection hashers are banned by the
/// determinism contract: the store's checksums, the lint cache's keys and
/// the fixed-size fields of content stamps are built from it; bulk word
/// content goes through [`fold_words`]. Each step is a bijection of the
/// state, so two inputs of one length that differ in a single byte never
/// share a digest.
#[inline]
pub fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = acc;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The odd multiplier of [`fold_words`] (MurmurHash64A's `m`).
const FOLD_MULTIPLIER: u64 = 0xc6a4_a793_5bd1_e995;

/// Folds `words` into `acc` one 64-bit word per step: the word-at-a-time
/// companion of [`fnv1a`] for content already packed in words (a core's
/// cube planes), eight bytes per step instead of one. Each step is the
/// inner loop of MurmurHash64A (Austin Appleby, public domain) without its
/// seed and tail: with `M = 0xc6a4_a793_5bd1_e995`,
///
/// ```text
/// k = w * M;  k ^= k >> 47;  k *= M;     the word's premix
/// h = (h ^ k) * M                        the state step
/// ```
///
/// The premix is a bijection of the word and the state step a bijection
/// of the state (xor, then an odd multiply), so two inputs of one length
/// that differ in a single word never share a result. The premix is what
/// keeps sparse differences apart: a multiply only carries upwards, so
/// without it a flip of a word's bit 63 stays a flip of one state bit,
/// which the same flip in another word cancels (a bare xor-multiply) or a
/// one-bit flip of the next word cancels (a xor-multiply followed by a
/// rotate). Premixed, a one-bit flip reaches the state as many bits.
#[inline]
pub fn fold_words(acc: u64, words: &[u64]) -> u64 {
    words.iter().fold(acc, |h, &w| {
        let k = w.wrapping_mul(FOLD_MULTIPLIER);
        let k = (k ^ (k >> 47)).wrapping_mul(FOLD_MULTIPLIER);
        (h ^ k).wrapping_mul(FOLD_MULTIPLIER)
    })
}

/// Publishes `contents` at `path` atomically: writes a temp file next to
/// it, named `.<file name>.<pid>-<seq>.tmp` (unique per process and
/// write), then renames it into place. A reader sees the old file or the
/// new one, never a torn one, and two writers racing on one path each
/// stage their own temp file. On failure the temp file is removed. No
/// fsync: durability is the filesystem's rename guarantee.
///
/// # Errors
///
/// The write or rename error; `InvalidInput` when `path` has no file name.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(name) = path.file_name() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "atomic write target has no file name",
        ));
    };
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    let tmp = path.with_file_name(format!(
        ".{}.{}-{seq}.tmp",
        name.to_string_lossy(),
        std::process::id()
    ));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Files one quarantine directory keeps. Past this, [`quarantine`]
/// deletes a corrupt file instead of keeping it as evidence.
const QUARANTINE_FILES: usize = 64;

/// Moves `path` into `dir` (created on demand) under the first free
/// `NNNN-<file name>`, so evidence from earlier runs is never replaced.
/// Returns the quarantined name. A directory holding
/// `QUARANTINE_FILES` (64) files keeps no more: the file is deleted
/// instead. So is a file whose move fails — a corrupt file must never be
/// read again — and either way `None` comes back, as it does for a
/// missing file. One directory listing finds the free name.
pub fn quarantine(path: &Path, dir: &Path) -> Option<String> {
    let base = path.file_name()?.to_string_lossy().into_owned();
    let kept: BTreeSet<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    // Below the cap, some sequence number under it is free for any name.
    let name = if kept.len() < QUARANTINE_FILES {
        (0..QUARANTINE_FILES)
            .map(|seq| format!("{seq:04}-{base}"))
            .find(|name| !kept.contains(name))
    } else {
        None
    };
    let moved = name.filter(|name| {
        std::fs::create_dir_all(dir).is_ok() && std::fs::rename(path, dir.join(name)).is_ok()
    });
    if moved.is_none() {
        let _ = std::fs::remove_file(path);
    }
    moved
}

/// What [`Store::get`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A verified entry; its payload.
    Hit(Vec<u8>),
    /// No entry under this name.
    Miss,
    /// A file that failed verification; it has been quarantined.
    Corrupt,
}

/// Entry cap of one shard: 4096 entries for the whole store, split over
/// its 16 shards (`shard-0 … shard-f`, the fingerprint's top hex digit).
const SHARD_ENTRIES: usize = 4096 / 16;

/// Byte cap of one shard: 64 MiB for the whole store, split over its 16
/// shards.
const SHARD_BYTES: u64 = (64 << 20) / 16;

/// Each shard's write-order journal: one entry name per write, oldest
/// first.
const JOURNAL: &str = "index.log";

/// Each shard's quarantine subdirectory.
const QUARANTINE: &str = "quarantine";

/// First line of every entry, before its payload length and checksum.
const MAGIC: &str = "# store v1";

/// A sharded, checksummed, bounded on-disk store (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Store {
    root: PathBuf,
    shard_entries: usize,
    shard_bytes: u64,
}

impl Store {
    /// The store under `root` (created on the first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Store::with_shard_caps(root, SHARD_ENTRIES, SHARD_BYTES)
    }

    /// A store whose shards each hold at most `entries` entries and
    /// `bytes` bytes, for tests that reach eviction.
    pub(crate) fn with_shard_caps(root: impl Into<PathBuf>, entries: usize, bytes: u64) -> Self {
        Store {
            root: root.into(),
            shard_entries: entries,
            shard_bytes: bytes,
        }
    }

    /// Reads the entry `name` under `fingerprint`. A file that does not
    /// verify is quarantined and reported as [`Lookup::Corrupt`]; an
    /// absent or unreadable one is a [`Lookup::Miss`].
    pub fn get(&self, fingerprint: u64, name: &str) -> Lookup {
        let shard = self.shard(fingerprint);
        let path = shard.join(entry_file_name(name));
        let Ok(bytes) = std::fs::read(&path) else {
            return Lookup::Miss;
        };
        match verified_payload(&bytes) {
            Some(payload) => Lookup::Hit(payload.to_vec()),
            None => {
                quarantine(&path, &shard.join(QUARANTINE));
                Lookup::Corrupt
            }
        }
    }

    /// Writes `payload` as the entry `name` under `fingerprint`, then
    /// evicts the written shard down to its caps. Returns how many entries
    /// were evicted; a failed write evicts nothing.
    pub fn put(&self, fingerprint: u64, name: &str, payload: &[u8]) -> u64 {
        let shard = self.shard(fingerprint);
        let name = entry_file_name(name);
        let mut entry = format!("{}\n", header(payload)).into_bytes();
        entry.extend_from_slice(payload);
        let written = std::fs::create_dir_all(&shard).is_ok()
            && write_atomic(&shard.join(&name), &entry).is_ok();
        if written {
            self.enforce_caps(&shard, Some(&name))
        } else {
            0
        }
    }

    /// Every entry file under the store, across all shards, sorted.
    pub fn entries(&self) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for shard in self.shards() {
            files.extend(shard_files(&shard).into_keys().map(|name| shard.join(name)));
        }
        files.sort();
        files
    }

    /// Every quarantined file under the store, across all shards, sorted.
    pub fn quarantined(&self) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for shard in self.shards() {
            if let Ok(dir) = std::fs::read_dir(shard.join(QUARANTINE)) {
                files.extend(dir.flatten().map(|e| e.path()));
            }
        }
        files.sort();
        files
    }

    /// The shard directory of `fingerprint` (its top hex digit).
    fn shard(&self, fingerprint: u64) -> PathBuf {
        self.root.join(format!("shard-{:x}", fingerprint >> 60))
    }

    /// The shard directories present under the root.
    fn shards(&self) -> Vec<PathBuf> {
        let Ok(dir) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        dir.flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
            .map(|e| e.path())
            .collect()
    }

    /// Evicts `shard` oldest-first until it is within both caps, records
    /// `written` (the entry just published) in the journal and returns the
    /// eviction count. Write order is each name's latest journal line,
    /// preceded by any unjournaled files in name order and followed by
    /// `written`. The journal gains one appended line, or is rewritten to
    /// the survivors after an eviction or once it holds more than twice as
    /// many lines as live entries.
    fn enforce_caps(&self, shard: &Path, written: Option<&str>) -> u64 {
        let sizes = shard_files(shard);
        let path = shard.join(JOURNAL);
        let journal = std::fs::read_to_string(&path).unwrap_or_default();
        let mut latest: BTreeMap<&str, usize> = BTreeMap::new();
        for (line, name) in journal.lines().map(str::trim).enumerate() {
            if sizes.contains_key(name) && Some(name) != written {
                latest.insert(name, line);
            }
        }
        let mut journaled: Vec<(usize, &str)> = latest.iter().map(|(n, l)| (*l, *n)).collect();
        journaled.sort_unstable();
        let order: Vec<&str> = sizes
            .keys()
            .map(String::as_str)
            .filter(|name| !latest.contains_key(name) && Some(*name) != written)
            .chain(journaled.into_iter().map(|(_, name)| name))
            .chain(written.filter(|name| sizes.contains_key(*name)))
            .collect();

        let mut bytes: u64 = order.iter().filter_map(|name| sizes.get(*name)).sum();
        let mut evicted = 0usize;
        for name in &order {
            let live = order.len().saturating_sub(evicted);
            if live <= self.shard_entries && bytes <= self.shard_bytes {
                break;
            }
            let _ = std::fs::remove_file(shard.join(name));
            bytes = bytes.saturating_sub(sizes.get(*name).copied().unwrap_or(0));
            evicted = evicted.saturating_add(1);
        }

        let survivors = order.get(evicted..).unwrap_or_default();
        let lines = journal.lines().count().saturating_add(1);
        if evicted > 0 || lines > survivors.len().saturating_mul(2) {
            let mut text = String::new();
            for name in survivors {
                text.push_str(name);
                text.push('\n');
            }
            let _ = write_atomic(&path, text.as_bytes());
        } else if let Some(name) = written {
            // A torn last line must not swallow this one.
            let sep = if journal.is_empty() || journal.ends_with('\n') {
                ""
            } else {
                "\n"
            };
            let _ = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut file| file.write_all(format!("{sep}{name}\n").as_bytes()));
        }
        u64::try_from(evicted).unwrap_or(u64::MAX)
    }
}

/// The header line (without its newline) that vouches for `payload`.
fn header(payload: &[u8]) -> String {
    format!(
        "{MAGIC} {} {:016x}",
        payload.len(),
        fnv1a(FNV_OFFSET, payload)
    )
}

/// The payload of an entry file, when its first line is exactly the
/// header its payload implies; `None` for anything else.
fn verified_payload(bytes: &[u8]) -> Option<&[u8]> {
    let end = bytes.iter().position(|&b| b == b'\n')?;
    let (line, rest) = bytes.split_at_checked(end)?;
    let payload = rest.get(1..)?;
    (line == header(payload).as_bytes()).then_some(payload)
}

/// The on-disk file name of entry `name`: characters outside
/// `[A-Za-z0-9._-]` become `_`, as does a leading `.` (temp files are
/// dotfiles), and the journal's name is prefixed so it stays reserved.
fn entry_file_name(name: &str) -> String {
    let safe: String = name
        .chars()
        .enumerate()
        .map(|(i, c)| {
            let allowed = c.is_ascii_alphanumeric() || c == '-' || c == '_' || (c == '.' && i > 0);
            if allowed {
                c
            } else {
                '_'
            }
        })
        .collect();
    if safe == JOURNAL {
        format!("_{safe}")
    } else {
        safe
    }
}

/// The entry files of one shard and their sizes, by name: regular files
/// other than the journal and dotfiles (in-flight temp files).
fn shard_files(shard: &Path) -> BTreeMap<String, u64> {
    let mut sizes = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir(shard) else {
        return sizes;
    };
    for entry in dir.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') || name == JOURNAL {
            continue;
        }
        if let Ok(meta) = entry.metadata() {
            if meta.is_file() {
                sizes.insert(name, meta.len());
            }
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh, empty directory unique to `name` and this process.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("robust-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Fingerprint `i` in shard 3, so writes contend in one shard.
    fn in_shard_3(i: u64) -> u64 {
        (0x3 << 60) | i
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn fold_words_matches_the_reference_vectors() {
        // An empty input leaves the state alone.
        for acc in [0, 1, FNV_OFFSET, u64::MAX] {
            assert_eq!(fold_words(acc, &[]), acc);
        }
        // Folding continues from `acc`, and one value is pinned, so a
        // change to the step is a deliberate test edit.
        assert_eq!(
            fold_words(FNV_OFFSET, &[1, 2, 3]),
            fold_words(fold_words(FNV_OFFSET, &[1]), &[2, 3])
        );
        assert_eq!(fold_words(FNV_OFFSET, &[1, 2, 3]), FOLD_1_2_3);
        // Every single-bit flip of a 3-word input moves the result.
        let base = [0x0123_4567_89ab_cdef, 0, u64::MAX];
        let reference = fold_words(FNV_OFFSET, &base);
        for word in 0..base.len() {
            for bit in 0..64 {
                let mut flipped = base;
                flipped[word] ^= 1 << bit;
                assert_ne!(
                    fold_words(FNV_OFFSET, &flipped),
                    reference,
                    "word {word} bit {bit}"
                );
            }
        }
        // The same flip of bit 63 in two different words does not cancel
        // (it would under a bare xor-multiply).
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            let mut flipped = base;
            flipped[a] ^= 1 << 63;
            flipped[b] ^= 1 << 63;
            assert_ne!(
                fold_words(FNV_OFFSET, &flipped),
                reference,
                "words {a}, {b}"
            );
        }
        // Nor does any one-bit flip in a word with any one-bit flip in the
        // next (a xor-multiply-rotate step cancels bit 63 against bit 28).
        for i in 0..64 {
            for j in 0..64 {
                let mut flipped = base;
                flipped[0] ^= 1 << i;
                flipped[1] ^= 1 << j;
                assert_ne!(fold_words(FNV_OFFSET, &flipped), reference, "bits {i}, {j}");
            }
        }
    }

    /// `fold_words(FNV_OFFSET, &[1, 2, 3])`, computed independently.
    const FOLD_1_2_3: u64 = 0xc460_96c0_93fd_a361;

    #[test]
    fn entries_round_trip_in_their_fingerprint_shard() {
        let dir = scratch("roundtrip");
        let store = Store::new(&dir);
        assert_eq!(store.get(7, "a.csv"), Lookup::Miss);
        for (fingerprint, name, payload) in [
            (0x0123u64, "a.csv", &b"alpha\n1,2\n"[..]),
            (0xf000_0000_0000_0000, "b.lint", b""),
            (0x7fff_ffff_ffff_ffff, "c", b"\n\n# store v1 0 0\n\xff"),
        ] {
            assert_eq!(store.put(fingerprint, name, payload), 0);
            assert_eq!(store.get(fingerprint, name), Lookup::Hit(payload.to_vec()));
            let shard = dir.join(format!("shard-{:x}", fingerprint >> 60));
            assert!(shard.join(name).is_file(), "{name} in {shard:?}");
        }
        // Rewriting an entry replaces it.
        store.put(0x0123, "a.csv", b"beta");
        assert_eq!(store.get(0x0123, "a.csv"), Lookup::Hit(b"beta".to_vec()));
        assert_eq!(store.entries().len(), 3);
        assert!(store.quarantined().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_cannot_escape_the_shard_or_shadow_store_files() {
        assert_eq!(entry_file_name("../x/y.csv"), "_._x_y.csv");
        assert_eq!(entry_file_name(".hidden"), "_hidden");
        assert_eq!(entry_file_name("index.log"), "_index.log");
        assert_eq!(entry_file_name("t-core_1-00ff.csv"), "t-core_1-00ff.csv");
    }

    #[test]
    fn every_byte_flip_and_truncation_is_corrupt_and_quarantined() {
        let dir = scratch("flips");
        let store = Store::new(&dir);
        let payload = b"# cover 3\nw,m\n3,4,1000,500\n";
        store.put(5, "e.csv", payload);
        let path = dir.join("shard-0/e.csv");
        let good = std::fs::read(&path).unwrap();
        let mut damaged: Vec<Vec<u8>> = (0..good.len()).map(|n| good[..n].to_vec()).collect();
        for i in 0..good.len() {
            for flip in [0x01u8, 0x80] {
                let mut bytes = good.clone();
                bytes[i] ^= flip;
                damaged.push(bytes);
            }
        }
        let mut quarantined = 0;
        for bytes in damaged {
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(store.get(5, "e.csv"), Lookup::Corrupt, "{bytes:?}");
            assert!(!path.exists(), "a corrupt entry leaves the lookup path");
            quarantined += 1;
            assert_eq!(
                store.quarantined().len(),
                quarantined.min(QUARANTINE_FILES),
                "one shard's quarantine keeps at most its cap"
            );
            assert_eq!(store.get(5, "e.csv"), Lookup::Miss);
        }
        // Appended bytes are damage too.
        let mut long = good.clone();
        long.push(b'\n');
        std::fs::write(&path, &long).unwrap();
        assert_eq!(store.get(5, "e.csv"), Lookup::Corrupt);
        // The intact entry still reads back.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(store.get(5, "e.csv"), Lookup::Hit(payload.to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_corrupted_twice_keeps_both_quarantined_copies() {
        let dir = scratch("twice");
        let store = Store::new(&dir);
        for damage in ["first", "second"] {
            store.put(9, "k.csv", b"payload");
            std::fs::write(dir.join("shard-0/k.csv"), damage).unwrap();
            assert_eq!(store.get(9, "k.csv"), Lookup::Corrupt);
        }
        let kept: Vec<(String, String)> = store
            .quarantined()
            .iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(p).unwrap())
            })
            .collect();
        assert_eq!(
            kept,
            [
                ("0000-k.csv".to_string(), "first".to_string()),
                ("0001-k.csv".to_string(), "second".to_string()),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_parent_format_entry_is_a_miss_that_gets_rewritten() {
        // The profile cache's previous layout: a self-checksummed cover
        // line, then the CSV body, with no store header.
        let dir = scratch("parent");
        let store = Store::new(&dir);
        let shard = dir.join("shard-0");
        std::fs::create_dir_all(&shard).unwrap();
        std::fs::write(
            shard.join("t-c-0000000000000001-s24-m16.csv"),
            "# cover 3 fnv 0123456789abcdef\n# profile of c\nw,m,test_time,volume_bits\n\
             3,4,1000,500\n# end 1 fnv 0123456789abcdef\n",
        )
        .unwrap();
        std::fs::write(
            shard.join("old.lint"),
            "soclint-cache v2\npath\tx.rs\nend\n",
        )
        .unwrap();
        for name in ["t-c-0000000000000001-s24-m16.csv", "old.lint"] {
            assert_eq!(store.get(1, name), Lookup::Corrupt);
            assert_eq!(store.get(1, name), Lookup::Miss);
            store.put(1, name, b"new");
            assert_eq!(store.get(1, name), Lookup::Hit(b"new".to_vec()));
        }
        assert_eq!(store.quarantined().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn caps_evict_in_journal_order_and_unjournaled_files_first() {
        let dir = scratch("caps");
        let store = Store::with_shard_caps(&dir, 2, u64::MAX);
        let mut evicted = 0;
        for i in 0..5 {
            evicted += store.put(in_shard_3(i), &format!("e{i}"), b"x");
        }
        assert_eq!(evicted, 3, "writes 3..5 each evict the oldest");
        let names = |store: &Store| -> Vec<String> {
            store
                .entries()
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(names(&store), ["e3", "e4"]);
        let journal = std::fs::read_to_string(dir.join("shard-3/index.log")).unwrap();
        assert_eq!(journal, "e3\ne4\n");

        // Rewriting e3 makes it the newest, so e4 goes next.
        assert_eq!(store.put(in_shard_3(3), "e3", b"y"), 0);
        assert_eq!(store.put(in_shard_3(5), "e5", b"x"), 1);
        assert_eq!(names(&store), ["e3", "e5"]);

        // Writes append to the journal, which is compacted before it grows
        // past twice the live entries; a torn last line swallows nothing.
        for _ in 0..5 {
            store.put(in_shard_3(5), "e5", b"x");
        }
        let journal = std::fs::read_to_string(dir.join("shard-3/index.log")).unwrap();
        assert!(journal.lines().count() <= 4, "{journal:?}");
        assert!(journal.ends_with("e5\n"), "{journal:?}");
        std::fs::write(dir.join("shard-3/index.log"), "e3\ne5\ntorn").unwrap();
        assert_eq!(store.put(in_shard_3(3), "e3", b"z"), 0);
        assert_eq!(store.put(in_shard_3(8), "e8", b"x"), 1);
        assert_eq!(names(&store), ["e3", "e8"]);
        store.put(in_shard_3(5), "e5", b"x");

        // A file the journal does not name (here: a stray copy) is the
        // oldest, whatever its name.
        std::fs::write(dir.join("shard-3/zz-stray"), "?").unwrap();
        assert_eq!(store.put(in_shard_3(6), "e6", b"x"), 2);
        assert_eq!(names(&store), ["e5", "e6"]);

        // Byte caps evict the same way; other shards are untouched.
        store.put(0, "other", b"x");
        let size = std::fs::metadata(dir.join("shard-3/e6")).unwrap().len();
        let small = Store::with_shard_caps(&dir, usize::MAX, 2 * size);
        assert_eq!(small.put(in_shard_3(7), "e7", b"x"), 1);
        assert_eq!(names(&store), ["other", "e6", "e7"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writes_leave_no_temp_files_and_replace_the_target() {
        let dir = scratch("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        assert!(write_atomic(&dir.join("missing/x"), b"").is_err());
        assert!(write_atomic(Path::new("/"), b"").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_keeps_every_copy_and_reports_missing_files() {
        let dir = scratch("quarantine");
        std::fs::create_dir_all(&dir).unwrap();
        let aside = dir.join("aside");
        for body in ["one", "two"] {
            std::fs::write(dir.join("f.json"), body).unwrap();
            assert!(quarantine(&dir.join("f.json"), &aside).is_some());
        }
        assert_eq!(quarantine(&dir.join("f.json"), &aside), None);
        assert_eq!(
            std::fs::read_to_string(aside.join("0000-f.json")).unwrap(),
            "one"
        );
        assert_eq!(
            std::fs::read_to_string(aside.join("0001-f.json")).unwrap(),
            "two"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_quarantine_deletes_instead_of_keeping() {
        let dir = scratch("quarantine-cap");
        std::fs::create_dir_all(&dir).unwrap();
        let aside = dir.join("aside");
        for i in 0..QUARANTINE_FILES + 3 {
            let name = format!("f{}.json", i % 2);
            std::fs::write(dir.join(&name), i.to_string()).unwrap();
            let kept = quarantine(&dir.join(&name), &aside);
            assert_eq!(kept.is_some(), i < QUARANTINE_FILES, "copy {i}");
            assert!(!dir.join(&name).exists(), "copy {i} leaves its path");
        }
        assert_eq!(std::fs::read_dir(&aside).unwrap().count(), QUARANTINE_FILES);
        // The earliest evidence is what stays.
        assert_eq!(
            std::fs::read_to_string(aside.join("0000-f0.json")).unwrap(),
            "0"
        );
        assert_eq!(
            std::fs::read_to_string(aside.join("0031-f1.json")).unwrap(),
            "63"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// N concurrent writers hammering one store: every entry must
        /// read back intact (atomic renames — no torn files, no
        /// quarantines), no temp file may leak, and every shard must hold
        /// its cap.
        #[test]
        fn concurrent_writers_never_tear_the_sharded_cache(
            threads in 2usize..5,
            per_thread in 1usize..9,
            cap in 1usize..4,
            salt in proptest::prelude::any::<u64>(),
        ) {
            let dir = std::env::temp_dir().join(format!(
                "robust-store-hammer-{}-{threads}-{per_thread}-{cap}-{salt:x}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Store::with_shard_caps(&dir, cap, u64::MAX);
            let payload = |stamp: u64| format!("# cover 3\n{stamp:x}\n").repeat(1 + (stamp % 7) as usize);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let store = &store;
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            // Mix the salt into the fingerprint so runs
                            // spread differently across shards case to case.
                            let stamp = salt
                                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                .wrapping_add((t * per_thread + i) as u64);
                            store.put(stamp, &format!("c{t}x{i}-{stamp:016x}"), payload(stamp).as_bytes());
                        }
                    });
                }
            });
            // Concurrent enforcement may transiently overshoot a cap (a
            // writer can rename after another's directory scan); one
            // quiescent enforcement pass per shard restores it, exactly
            // as the next writer in that shard would.
            for shard in store.shards() {
                store.enforce_caps(&shard, None);
            }
            proptest::prop_assert!(store.quarantined().is_empty());
            let mut per_shard: BTreeMap<PathBuf, usize> = BTreeMap::new();
            for shard in store.shards() {
                for entry in std::fs::read_dir(&shard).unwrap().flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    proptest::prop_assert!(!name.ends_with(".tmp"), "staging file leaked: {name}");
                }
            }
            for path in store.entries() {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let stamp = u64::from_str_radix(name.rsplit('-').next().unwrap(), 16).unwrap();
                proptest::prop_assert_eq!(
                    store.get(stamp, &name),
                    Lookup::Hit(payload(stamp).into_bytes()),
                    "torn entry {:?}",
                    &path
                );
                *per_shard.entry(path.parent().unwrap().to_path_buf()).or_default() += 1;
            }
            for (shard, count) in per_shard {
                proptest::prop_assert!(count <= cap, "shard {shard:?} holds {count} > cap {cap}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
