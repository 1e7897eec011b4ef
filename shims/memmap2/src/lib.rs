//! Offline stand-in for the `memmap2` crate.
//!
//! The build environment has no access to crates.io, so this path crate
//! provides the small subset of the memmap2 0.9 API the workspace uses:
//! [`MmapOptions::map`] / [`Mmap::map`] producing a read-only [`Mmap`] that
//! derefs to `&[u8]`.
//!
//! On unix the mapping is a real `mmap(2)` (`PROT_READ`, `MAP_PRIVATE`),
//! called through the C library that the Rust standard library already links
//! against — no external crate needed. On other platforms, for zero-length
//! files, or if the syscall fails, the file is read into an 8-byte-aligned
//! heap buffer instead; callers observe the same `&[u8]` either way, only
//! the paging behaviour differs. The buffer fallback keeps the alignment
//! guarantee the snapshot loader relies on (mapped bases are page-aligned;
//! the fallback allocates `u64` storage).

use std::fs::File;
use std::io::{self, Read};
use std::ops::Deref;

#[cfg(unix)]
mod sys {
    //! Direct bindings to the three libc symbols we need. The Rust standard
    //! library links libc on every unix target, so these resolve without any
    //! build-script or external crate.

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, length: usize) -> i32;
    }
}

/// How the bytes are held: a kernel mapping or an owned aligned buffer.
enum Backing {
    /// A live `mmap(2)` region (unmapped on drop).
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
    /// Owned storage, kept as `u64` words so the base is 8-byte aligned.
    Owned { words: Vec<u64>, len: usize },
}

// SAFETY: the mapping is read-only and private, and nothing writes through
// its pointer: no aliasing hazards beyond those of any shared `&[u8]`, so
// the handle can cross threads (unmapping on drop needs no particular one).
unsafe impl Send for Backing {}
// SAFETY: as for `Send`: every access through a shared handle is a read.
unsafe impl Sync for Backing {}

/// A read-only memory map of a file (or an owned aligned copy when mapping
/// is unavailable). Derefs to `&[u8]`.
pub struct Mmap {
    backing: Backing,
}

impl Mmap {
    /// Maps `file` read-only.
    ///
    /// # Safety
    /// As with the real memmap2 crate: the caller must ensure the underlying
    /// file is not truncated or mutated while the map is alive (on the
    /// fallback path the bytes are copied, which is trivially safe).
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        MmapOptions::new().map(file)
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.backing {
            // SAFETY: `mmap` returned `ptr` for `len` readable bytes, and the
            // region stays mapped until `self` is dropped.
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            // SAFETY: `words` owns `len.div_ceil(8)` initialised words, so
            // its first `len` bytes are in bounds and initialised.
            Backing::Owned { words, len } => unsafe {
                std::slice::from_raw_parts(words.as_ptr() as *const u8, *len)
            },
        }
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            // Failure here is unrecoverable and harmless (the region just
            // stays mapped until process exit), so the result is ignored.
            // SAFETY: `ptr`/`len` are the region `mmap` returned, unmapped
            // once, here; no slice of it outlives `self`.
            unsafe { sys::munmap(ptr, len) };
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => "mapped",
            Backing::Owned { .. } => "owned",
        };
        f.debug_struct("Mmap")
            .field("len", &self.len())
            .field("backing", &kind)
            .finish()
    }
}

/// Builder mirroring `memmap2::MmapOptions` (read-only subset).
#[derive(Debug, Default)]
pub struct MmapOptions {
    _private: (),
}

impl MmapOptions {
    /// Creates a default option set.
    pub fn new() -> MmapOptions {
        MmapOptions::default()
    }

    /// Maps `file` read-only. See [`Mmap::map`] for the safety contract.
    ///
    /// # Safety
    /// The caller must ensure the file is not truncated or mutated while the
    /// map is alive.
    pub unsafe fn map(&self, file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map on this platform",
            ));
        }
        let len = len as usize;
        // mmap(2) rejects zero-length mappings; an empty owned buffer is the
        // canonical empty map.
        if len == 0 {
            return Ok(Mmap {
                backing: Backing::Owned {
                    words: Vec::new(),
                    len: 0,
                },
            });
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let ptr = sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            );
            if ptr as usize != usize::MAX {
                return Ok(Mmap {
                    backing: Backing::Mapped { ptr, len },
                });
            }
            // Fall through to the owned-buffer fallback on failure.
        }
        read_aligned(file, len)
    }
}

/// Reads the whole file into an 8-byte-aligned buffer (the fallback path).
fn read_aligned(mut file: &File, len: usize) -> io::Result<Mmap> {
    let mut words = vec![0u64; len.div_ceil(8)];
    // SAFETY: the view covers exactly the initialised words of `words`, any
    // byte pattern is a valid `u64`, and `words` is not touched while the
    // view is alive.
    let bytes =
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8) };
    let mut read = 0;
    while read < len {
        match file.read(&mut bytes[read..len]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "file shrank while reading",
                ))
            }
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Mmap {
        backing: Backing::Owned { words, len },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(contents: &[u8]) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!(
            "memmap2-shim-test-{}-{}",
            std::process::id(),
            contents.len()
        ));
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(contents).unwrap();
        }
        let file = File::open(&path).unwrap();
        (path, file)
    }

    #[test]
    fn maps_file_contents() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let (path, file) = temp_file(&data);
        // SAFETY: the test owns the file and does not change it while mapped.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&*map, &data[..]);
        // Page alignment (or the 8-byte fallback guarantee) for typed casts.
        assert_eq!(map.as_ptr() as usize % 8, 0);
        drop(map);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_maps_empty() {
        let (path, file) = temp_file(&[]);
        // SAFETY: the test owns the file and does not change it while mapped.
        let map = unsafe { MmapOptions::new().map(&file) }.unwrap();
        assert!(map.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fallback_reader_is_aligned_and_exact() {
        let data = vec![7u8; 1234];
        let (path, file) = temp_file(&data);
        let map = read_aligned(&file, data.len()).unwrap();
        assert_eq!(&*map, &data[..]);
        assert_eq!(map.as_ptr() as usize % 8, 0);
        std::fs::remove_file(path).ok();
    }
}
