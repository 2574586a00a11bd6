//! The reference workload every timing is divided by.
//!
//! Five small kernels (0.3–1 ms each on a 2020s x86 core) that stress the
//! same parts of the machine the program does: hashing and probing,
//! pointer-chasing through boxed nodes, allocator churn, text
//! formatting/parsing, and unions and interning of wide bitset rows. None
//! of them calls program code. A sample runs all five twice back to back
//! and keeps the second pass, so the heap and cache state the program left
//! behind cannot move the reference time; the sample's value is the
//! geometric mean of the five kernel times.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const KEYS: u64 = 10_000;

/// std `HashMap` build and probe, plus small-`Vec` churn.
fn std_map() -> u64 {
    let mut m: HashMap<u64, u64> = HashMap::new();
    for k in 0..KEYS {
        m.insert(k.wrapping_mul(0x9e37_79b9), k);
    }
    let mut s = 0u64;
    for k in 0..KEYS * 2 {
        s = s.wrapping_add(m.get(&k.wrapping_mul(0x9e37_79b9)).copied().unwrap_or(1));
    }
    for i in 0..3_000u64 {
        let mut v: Vec<u64> = Vec::new();
        for j in 0..(i % 9) {
            v.push(j ^ i);
        }
        s = s.wrapping_add(black_box(&v).len() as u64);
    }
    s
}

/// An open-addressing table with a multiplicative hash, plus boxed-slice
/// churn.
fn open_table() -> u64 {
    const BITS: u32 = 15;
    let mut slots = vec![u64::MAX; 1 << BITS];
    let mask = slots.len() - 1;
    let home = |k: u64| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - BITS)) as usize;
    for k in 0..KEYS {
        let mut i = home(k);
        while slots[i] != u64::MAX {
            i = (i + 1) & mask;
        }
        slots[i] = k;
    }
    let mut s = 0u64;
    for k in 0..KEYS {
        let mut i = home(k);
        while slots[i] != k {
            i = (i + 1) & mask;
        }
        s = s.wrapping_add(i as u64);
    }
    for i in 0..8_000usize {
        let b: Box<[u32]> = vec![i as u32; i % 17 + 1].into_boxed_slice();
        s = s.wrapping_add(black_box(&b)[i % b.len()] as u64);
    }
    s
}

enum Node {
    Leaf(u64),
    Pair(Box<Node>, Box<Node>),
}

fn build(depth: u32, v: u64) -> Node {
    if depth == 0 {
        Node::Leaf(v)
    } else {
        Node::Pair(
            Box::new(build(depth - 1, v.wrapping_mul(3))),
            Box::new(build(depth - 1, v.wrapping_add(7))),
        )
    }
}

fn sum(n: &Node) -> u64 {
    match n {
        Node::Leaf(v) => *v,
        Node::Pair(l, r) => sum(l).wrapping_add(sum(r)),
    }
}

/// A boxed binary tree that is built, summed and dropped.
fn boxed_tree() -> u64 {
    let t = build(13, 1);
    let s = sum(black_box(&t));
    drop(t);
    s
}

/// A string built with `format!`, then split and parsed.
fn text() -> u64 {
    let mut s = String::new();
    for i in 0..2_500u64 {
        s.push_str(&format!("{},{};", i, i.wrapping_mul(7919)));
    }
    let mut total = 0u64;
    for part in black_box(&s).split(';') {
        if let Some((a, b)) = part.split_once(',') {
            let a: u64 = a.parse().unwrap_or(0);
            let b: u64 = b.parse().unwrap_or(0);
            total = total.wrapping_add(a ^ b);
        }
    }
    let mut tail = String::new();
    let _ = write!(tail, "{total}");
    total.wrapping_add(tail.len() as u64)
}

const W: usize = 8;
const ROWS: usize = 1 << 15;
const UNIONS: usize = 1 << 13;

/// The wide-row kernel's buffers, allocated once per process: allocating
/// them per sample would leave the resident set after a sample depending
/// on what the allocator kept, and the operations' peak RSS with it.
struct Wide {
    rows: Vec<u64>,
    arena: Vec<u64>,
    table: Vec<u32>,
}

thread_local! {
    static WIDE: RefCell<Wide> = RefCell::new(Wide {
        rows: vec![0; W * ROWS],
        arena: Vec::with_capacity(W * UNIONS),
        table: vec![u32::MAX; 2 * UNIONS],
    });
}

/// Unions of wide `u64` rows, interned by content in an open-addressing
/// table, over a few MB: the shape of the walk's bitset kernel, which the
/// other four track least well.
fn wide_rows() -> u64 {
    WIDE.with(|w| {
        let Wide { rows, arena, table } = &mut *w.borrow_mut();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for w in rows.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x & (x >> 3);
        }
        arena.clear();
        table.fill(u32::MAX);
        let mask = table.len() - 1;
        let mut acc = [0u64; W];
        for i in 0..UNIONS {
            let a = &rows[(i.wrapping_mul(40_503) % ROWS) * W..][..W];
            let b = &rows[(i.wrapping_mul(7_919) % ROWS) * W..][..W];
            let mut h = 0u64;
            for k in 0..W {
                acc[k] = a[k] | b[k];
                h = (h.rotate_left(5) ^ acc[k]).wrapping_mul(0x517c_c1b7_2722_0a95);
            }
            let mut slot = (h >> 40) as usize & mask;
            loop {
                let id = table[slot];
                if id == u32::MAX {
                    table[slot] = (arena.len() / W) as u32;
                    arena.extend_from_slice(&acc);
                    break;
                }
                if arena[id as usize * W..][..W] == acc {
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        black_box(&arena);
        (arena.len() / W) as u64
    })
}

const KERNELS: [fn() -> u64; 5] = [std_map, open_table, boxed_tree, text, wide_rows];

fn pass() -> [f64; 5] {
    let mut ms = [0.0; 5];
    for (k, f) in KERNELS.iter().enumerate() {
        let t = Instant::now();
        black_box(f());
        ms[k] = t.elapsed().as_secs_f64() * 1e3;
    }
    ms
}

/// One reference sample in milliseconds: the geometric mean of the kernel
/// times of the second of two back-to-back passes.
pub fn sample_ms() -> f64 {
    pass();
    let ms = pass();
    (ms.iter().map(|m| m.ln()).sum::<f64>() / ms.len() as f64).exp()
}
