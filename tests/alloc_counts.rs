//! Allocation counts of the document path. A DTD compiles its content
//! DFAs once, so validating a valid document allocates nothing after the
//! first call. The XML parser allocates when one of its arrays doubles,
//! never per element.
//!
//! A `harness = false` test (see Cargo.toml): the counting allocator sees
//! every thread's allocations, so the measured calls run alone on the
//! main thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmltc::dtd::Dtd;
use xmltc::xml::parse_document;

/// Counts calls that obtain memory: `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result, so `Counting` keeps `System`'s guarantees; the
// counter is a relaxed atomic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

fn main() {
    validate_allocates_nothing_after_the_first_call();
    println!("test validate_allocates_nothing_after_the_first_call ... ok");
    parse_allocates_per_doubling_not_per_element();
    println!("test parse_allocates_per_doubling_not_per_element ... ok");
}

fn validate_allocates_nothing_after_the_first_call() {
    let dtd = Dtd::parse_text("root := (a|b)*.c\na := b*\nb := @eps\nc := @eps").unwrap();
    // 2 047 children alternating `a(b)` and `b`, then `c`.
    let mut text = String::from("<root>");
    for i in 0..2047 {
        text.push_str(if i % 2 == 0 { "<a><b/></a>" } else { "<b/>" });
    }
    text.push_str("<c/></root>");
    let doc = parse_document(&text, dtd.alphabet()).unwrap();
    assert_eq!(doc.children(doc.root()).len(), 2048);

    let (first, verdict) = counted(|| dtd.validate(&doc));
    assert!(verdict.is_ok(), "{verdict:?}");
    assert!(first > 0, "the first call compiles the content DFAs");
    for call in 2..=3 {
        let (n, verdict) = counted(|| dtd.validate(&doc));
        assert!(verdict.is_ok());
        assert_eq!(n, 0, "call {call} of validate allocated {n} times");
    }
}

fn parse_allocates_per_doubling_not_per_element() {
    let dtd = Dtd::parse_text("root := a*\na := @eps").unwrap();
    let flat = |n: usize| format!("<root>{}</root>", "<a/>".repeat(n));
    let (small, large) = (flat(256), flat(4096));
    let (at_256, doc) = counted(|| parse_document(&small, dtd.alphabet()).unwrap());
    assert_eq!(doc.len(), 257);
    drop(doc);
    let (at_4096, doc) = counted(|| parse_document(&large, dtd.alphabet()).unwrap());
    assert_eq!(doc.len(), 4097);
    // Five arrays grow with the number of children (symbols, parents,
    // child ranges, shared children, pending children), and each doubles
    // at most five more times between 257 and 4 097 entries. One
    // allocation per element would add 3 840.
    assert!(
        at_4096 <= at_256 + 5 * 5,
        "parsing 256 children allocated {at_256} times, 4 096 children {at_4096} times"
    );
}
