//! A file the timed loop spools Report replies to, so the oracle can
//! read them back after the measurement.
//!
//! Canonicalising a Report (JSON parse plus BDD unions, about a
//! millisecond) between two sub-millisecond timed ops would halve the
//! sample and share the daemon's caches; holding the replies in memory
//! would put the benchmark's own tens of MB into `rss_peak_mb`. A
//! buffered append costs a `memcpy`, and page cache is not resident
//! set.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const SAME: u8 = 0;
const NEW: u8 = 1;

/// The write half.
pub struct Spool {
    out: BufWriter<File>,
    path: PathBuf,
    prev: String,
}

impl Spool {
    /// Creates the spool file in `dir` (which must lie inside the
    /// checkout; the build's target directory is the default).
    pub fn create(dir: &Path) -> io::Result<Spool> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("benchmark-spool-{}.tmp", std::process::id()));
        Ok(Spool {
            out: BufWriter::with_capacity(1 << 20, File::create(&path)?),
            path,
            prev: String::new(),
        })
    }

    /// Appends one reply; a repeat of the previous one costs one byte.
    pub fn push(&mut self, report: String) -> io::Result<()> {
        if report == self.prev {
            return self.out.write_all(&[SAME]);
        }
        self.out.write_all(&[NEW])?;
        self.out.write_all(&(report.len() as u64).to_le_bytes())?;
        self.out.write_all(report.as_bytes())?;
        self.prev = report;
        Ok(())
    }

    /// Flushes and reopens the spool for reading.
    pub fn finish(mut self) -> io::Result<SpoolReader> {
        self.out.flush()?;
        Ok(SpoolReader {
            input: BufReader::with_capacity(1 << 20, File::open(&self.path)?),
            path: self.path.clone(),
            current: String::new(),
        })
    }
}

/// The read half; removes the file when dropped.
pub struct SpoolReader {
    input: BufReader<File>,
    path: PathBuf,
    current: String,
}

impl SpoolReader {
    /// The next reply, and whether it repeats the previous one.
    pub fn next_report(&mut self) -> io::Result<Option<(&str, bool)>> {
        let mut tag = [0u8; 1];
        if self.input.read(&mut tag)? == 0 {
            return Ok(None);
        }
        if tag[0] == SAME {
            return Ok(Some((&self.current, true)));
        }
        let mut len = [0u8; 8];
        self.input.read_exact(&mut len)?;
        let mut buf = vec![0u8; u64::from_le_bytes(len) as usize];
        self.input.read_exact(&mut buf)?;
        self.current = String::from_utf8(buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(Some((&self.current, false)))
    }
}

impl Drop for SpoolReader {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_come_back_in_order_and_the_file_goes() {
        let dir = std::env::current_exe()
            .unwrap()
            .parent()
            .unwrap()
            .join("spool-test");
        let mut s = Spool::create(&dir).unwrap();
        let path = s.path.clone();
        for r in ["[]", "[]", "[{\"device\":1}]", "[]", "[]"] {
            s.push(r.to_string()).unwrap();
        }
        let mut r = s.finish().unwrap();
        let mut got = Vec::new();
        while let Some((text, same)) = r.next_report().unwrap() {
            got.push((text.to_string(), same));
        }
        let want = [
            ("[]", false),
            ("[]", true),
            ("[{\"device\":1}]", false),
            ("[]", false),
            ("[]", true),
        ];
        assert_eq!(got.len(), want.len());
        for ((g, gs), (w, ws)) in got.iter().zip(want) {
            assert_eq!((g.as_str(), *gs), (w, ws));
        }
        drop(r);
        assert!(!path.exists());
        let _ = std::fs::remove_dir(&dir);
    }
}
