//! Pool images: saving and restoring the *persistent* content of a pool to a
//! real file, so examples and tests can demonstrate cross-process restarts.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::config::PmemConfig;
use crate::device::Pmem;
use crate::error::PmemError;

const MAGIC: &[u8; 8] = b"JNVMPMEM";
const VERSION: u32 = 1;

impl Pmem {
    /// Write the persistent content of the pool (what a strict crash would
    /// leave in `CrashSim` mode, the live array otherwise) to `path`.
    ///
    /// The image records only size and contents; the simulation mode and
    /// latency profile are chosen again at [`Pmem::load`] time.
    pub fn save(&self, path: &Path) -> Result<(), PmemError> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&self.len().to_le_bytes())?;
        for line in 0..self.line_count() {
            for word in self.persistent_line(line) {
                w.write_all(&word.to_le_bytes())?;
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Recreate a pool from an image written by [`Pmem::save`].
    ///
    /// `cfg.size` is ignored; the image dictates the pool size. Mode and
    /// latency come from `cfg`.
    pub fn load(path: &Path, cfg: PmemConfig) -> Result<Arc<Pmem>, PmemError> {
        let file = File::open(path)?;
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(PmemError::BadImage("bad magic".into()));
        }
        let mut v4 = [0u8; 4];
        r.read_exact(&mut v4)?;
        if u32::from_le_bytes(v4) != VERSION {
            return Err(PmemError::BadImage(format!(
                "unsupported version {}",
                u32::from_le_bytes(v4)
            )));
        }
        let mut v8 = [0u8; 8];
        r.read_exact(&mut v8)?;
        let size = u64::from_le_bytes(v8);
        if size % 8 != 0 {
            return Err(PmemError::BadImage("size not word aligned".into()));
        }
        let pool = Pmem::new(PmemConfig { size, ..cfg });
        let mut buf = [0u8; 8];
        for widx in 0..(pool.len() / 8) as usize {
            r.read_exact(&mut buf)?;
            pool.restore_word(widx, u64::from_le_bytes(buf));
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CrashPolicy, PmemConfig};

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("jnvm-pmem-image-{}.img", std::process::id()));
        let p = Pmem::new(PmemConfig::crash_sim(4096));
        p.write_u64(16, 0xfeed);
        p.write_u64(256, 0xcafe);
        p.pwb(16);
        p.pwb(256);
        p.pfence();
        p.write_u64(512, 0xdead); // unflushed: must not be in the image
        p.save(&path).unwrap();

        let q = Pmem::load(&path, PmemConfig::crash_sim(0)).unwrap();
        assert_eq!(q.len(), 4096);
        assert_eq!(q.read_u64(16), 0xfeed);
        assert_eq!(q.read_u64(256), 0xcafe);
        assert_eq!(q.read_u64(512), 0);
        // The restored state is fully persistent.
        q.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(q.read_u64(16), 0xfeed);
        // ...and is what an unflushed store over it rolls back to.
        q.write_u64(16, 1);
        q.crash(&CrashPolicy::strict()).unwrap();
        assert_eq!(q.read_u64(16), 0xfeed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("jnvm-pmem-garbage-{}.img", std::process::id()));
        std::fs::write(&path, b"not an image at all").unwrap();
        assert!(Pmem::load(&path, PmemConfig::perf(0)).is_err());
        std::fs::remove_file(&path).ok();
    }
}
