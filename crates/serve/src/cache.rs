//! Content-addressed result cache: one JSON document per grid cell,
//! keyed by `fdip_harness::remote::cell_key` (FNV-1a over config hash,
//! workload hash, seed, and instruction budget).
//!
//! Entries are written atomically and durably (`<key>.json.tmp`,
//! synced, then renamed: [`fdip_telemetry::write_atomic`]) so a killed
//! daemon or a crashed host never leaves a torn entry behind, and every read
//! re-parses from disk — a corrupt file is simply a miss. The entry
//! layout is specified in `docs/SERVE.md` §"Cache entries".

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use fdip_telemetry::Json;

/// An on-disk cell cache rooted at `<state_dir>/cache/`.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    index: Mutex<BTreeSet<String>>,
}

impl Cache {
    /// Opens (creating if needed) the cache directory and indexes the
    /// keys already present.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or read.
    pub fn open(dir: PathBuf) -> io::Result<Cache> {
        std::fs::create_dir_all(&dir)?;
        let mut index = BTreeSet::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    index.insert(stem.to_string());
                }
            }
        }
        Ok(Cache {
            dir,
            index: Mutex::new(index),
        })
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.index.lock().expect("cache index lock").len()
    }

    /// Returns `true` if no cells are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `key` has a cached entry.
    pub fn contains(&self, key: &str) -> bool {
        self.index.lock().expect("cache index lock").contains(key)
    }

    /// Reads and parses the entry for `key`. Any read or parse failure
    /// (including a file deleted out from under the index) is a miss.
    pub fn get(&self, key: &str) -> Option<Json> {
        if !self.contains(key) {
            return None;
        }
        let text = std::fs::read_to_string(self.dir.join(format!("{key}.json"))).ok()?;
        Json::parse(&text).ok()
    }

    /// Writes the entry for `key` atomically and durably (see
    /// [`fdip_telemetry::write_atomic`]) and indexes it.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the entry cannot be written, synced or
    /// renamed into place; the index is only updated on success.
    pub fn put(&self, key: &str, doc: &Json) -> io::Result<()> {
        let final_path = self.dir.join(format!("{key}.json"));
        fdip_telemetry::write_atomic(&final_path, doc.to_string_pretty().as_bytes())?;
        self.index
            .lock()
            .expect("cache index lock")
            .insert(key.to_string());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fdip-cache-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn put_get_round_trips_and_survives_reopen() {
        let dir = temp_dir("roundtrip");
        let cache = Cache::open(dir.clone()).unwrap();
        assert!(cache.is_empty());
        let doc = Json::obj().with("cell", "abc").with("value", 7u64);
        cache.put("abc", &doc).unwrap();
        assert!(cache.contains("abc"));
        assert_eq!(cache.get("abc"), Some(doc.clone()));
        assert_eq!(cache.get("missing"), None);
        // A fresh Cache over the same directory sees the entry.
        let reopened = Cache::open(dir.clone()).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get("abc"), Some(doc));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_reads_as_miss() {
        let dir = temp_dir("corrupt");
        let cache = Cache::open(dir.clone()).unwrap();
        cache.put("bad", &Json::obj().with("x", 1u64)).unwrap();
        std::fs::write(dir.join("bad.json"), "{not json").unwrap();
        assert!(cache.contains("bad"));
        assert_eq!(cache.get("bad"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_files_are_not_indexed_on_open() {
        let dir = temp_dir("tmpfiles");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("torn.json.tmp"), "{").unwrap();
        let cache = Cache::open(dir.clone()).unwrap();
        assert!(cache.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
