//! The page-frame free list: zero on reuse, cross-thread reuse, and
//! retention bounded by the high-water mark.
//!
//! The free list is process-wide, so these tests live in their own binary
//! and take one lock each: no other test allocates frames meanwhile, and
//! the list's length and order are exact.

use std::sync::{mpsc, Mutex, MutexGuard};

use phj_storage::{Frame, Page};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn fill(page: &mut Page) {
    for i in 0..20u32 {
        page.insert(&[i as u8 | 0x80; 37], i).unwrap();
    }
}

#[test]
fn a_recycled_dirty_frame_seals_like_a_fresh_one() {
    let _serial = serial();
    // Hold every idle frame so the next two allocations are fresh.
    let _held: Vec<Frame> = (0..Frame::free_count()).map(|_| Frame::zeroed()).collect();
    assert_eq!(Frame::free_count(), 0);
    let mut fresh = Page::new();
    fill(&mut fresh);

    let mut dirty = Frame::zeroed();
    dirty.fill(0xA5);
    let dirty_addr = dirty.as_ptr() as usize;
    drop(dirty);
    let mut recycled = Page::new();
    assert_eq!(recycled.base_addr(), dirty_addr, "Page::new reuses the freed frame");
    fill(&mut recycled);

    // The checksum covers the free gap between slots and data too, so a
    // single stale byte anywhere would change the sealed image.
    assert_eq!(recycled.sealed_image()[..], fresh.sealed_image()[..]);
}

#[test]
fn a_frame_dropped_on_another_thread_is_reused_here() {
    let _serial = serial();
    // As in the disk join: a reader thread allocates the frame a page is
    // read into, and `BackgroundWriter`'s worker drops it after the write.
    // Left to glibc, the buffer would go back to the reader's arena.
    let image = std::thread::spawn(Frame::zeroed).join().unwrap();
    let addr = image.as_ptr() as usize;
    let (tx, rx) = mpsc::channel::<Frame>();
    let worker = std::thread::spawn(move || rx.into_iter().for_each(drop));
    tx.send(image).unwrap();
    drop(tx);
    worker.join().unwrap();
    assert_eq!(Frame::zeroed().as_ptr() as usize, addr);
}

#[test]
fn retention_stays_at_the_high_water_mark() {
    let _serial = serial();
    let n = Frame::free_count() + 64;
    let pages: Vec<Page> = (0..n).map(|_| Page::new()).collect();
    drop(pages);
    assert_eq!(Frame::free_count(), n);
    for _ in 0..3 {
        let pages: Vec<Page> = (0..n).map(|_| Page::new()).collect();
        assert_eq!(Frame::free_count(), 0, "every page came off the list");
        drop(pages);
        assert_eq!(Frame::free_count(), n, "the list never grows past the peak");
    }
}
