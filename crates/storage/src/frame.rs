//! Page frames: 8 KB buffers recycled through one process-wide free list.
//!
//! Every page buffer — relation and partition pages, partition-phase
//! flush copies, sealed disk images, pages read back from disk — is a
//! [`Frame`]. A dropped frame goes back onto one mutex-guarded free list
//! instead of to the allocator, and the next allocation on any thread
//! takes it from there. Left to glibc, the partition pages a join frees
//! at its end are trimmed back to the OS and page-faulted in again by the
//! next join, and buffers a disk reader thread allocates land in that
//! short-lived thread's arena.
//!
//! The list only ever holds the process's high-water mark of live frames,
//! and frames are never returned to the OS. There is deliberately no
//! per-thread cache: per-thread stashes of idle frames raised peak RSS on
//! the served and spilling workloads more than the global lock cost.

use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

use crate::page::PAGE_SIZE;

type Buf = Box<[u8; PAGE_SIZE]>;

static FREE: Mutex<Vec<Buf>> = Mutex::new(Vec::new());

fn free_list() -> MutexGuard<'static, Vec<Buf>> {
    // Push and pop leave the Vec valid at every step, so a guard poisoned
    // by a panicking holder is still sound to use.
    FREE.lock().unwrap_or_else(|p| p.into_inner())
}

/// An owned 8 KB page buffer taken from, and on drop returned to, the
/// process-wide free list.
///
/// The bytes live in their own heap box, so a frame's address stays put
/// while the frame is alive however often the handle itself moves.
///
/// The box sits in a `ManuallyDrop` rather than an `Option` so that every
/// byte access is a plain pointer dereference: the `Option` check on each
/// deref cost ~8 % of `mem_join_large` throughput on a 2-core Xeon.
pub struct Frame(ManuallyDrop<Buf>);

impl Frame {
    /// An all-zero frame. A recycled buffer is cleared first, so no byte
    /// of an earlier page reaches a new page, a sealed image or a file.
    pub fn zeroed() -> Frame {
        let recycled = free_list().pop();
        Frame(ManuallyDrop::new(match recycled {
            Some(mut buf) => {
                buf.fill(0);
                buf
            }
            None => vec![0u8; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("exact size"),
        }))
    }

    /// A frame holding a copy of `src`.
    pub fn copy_of(src: &[u8; PAGE_SIZE]) -> Frame {
        let recycled = free_list().pop();
        Frame(ManuallyDrop::new(match recycled {
            Some(mut buf) => {
                *buf = *src;
                buf
            }
            None => Box::new(*src),
        }))
    }

    /// Frames currently idle on the free list.
    pub fn free_count() -> usize {
        free_list().len()
    }
}

impl Deref for Frame {
    type Target = [u8; PAGE_SIZE];

    #[inline]
    fn deref(&self) -> &[u8; PAGE_SIZE] {
        &self.0
    }
}

impl DerefMut for Frame {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.0
    }
}

impl Clone for Frame {
    fn clone(&self) -> Frame {
        Frame::copy_of(self)
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        // SAFETY: `ManuallyDrop::take` requires that the slot is not used
        // again. `drop` runs at most once per frame, nothing reads `self.0`
        // after this line, and no other code in this module moves the box
        // out, so the box is taken exactly once and never double-freed.
        let buf = unsafe { ManuallyDrop::take(&mut self.0) };
        free_list().push(buf);
    }
}
