//! The plan engine's per-item loop allocates only what it returns.
//!
//! A counting global allocator (counting only on this test's thread) runs
//! the compiled peer body of the `scatter_fanout` workload — persons under
//! 40 in one XMark people partition — over 1 000 and 2 000 persons. The
//! difference between the two counts, over the 1 000 persons between them,
//! is what one more iteration costs: the rebinding of `$p`, the
//! `descendant::age` step, the comparison and the `return`. The step's
//! output (its `Vec` and its `Arc`) is all that must be left.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xqd_xml::Store;
use xqd_xquery::{compile_query, parse_query, Evaluator, Item, LocalResolver, StaticContext};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The peer body `scatter_fanout` ships to each partition.
const BODY: &str = "count(for $p in doc(\"xmk.xml\")/child::site/child::people/child::person \
                    return if ($p/descendant::age < 40) then $p else ())";

/// An XMark-shaped people partition: every person has a profile with an
/// `age` below a few sibling elements, ages cycling over 18..=79.
fn people(n: usize) -> String {
    let mut xml = String::from("<site><people>");
    for i in 0..n {
        xml.push_str(&format!(
            "<person id=\"person{i}\"><name>n{i}</name><emailaddress>e{i}</emailaddress>\
             <profile income=\"{}\"><interest category=\"c{}\"/><education>x</education>\
             <age>{}</age></profile><watches/></person>",
            20_000 + i,
            i % 50,
            18 + i % 62
        ));
    }
    xml.push_str("</people></site>");
    xml
}

fn under_40(n: usize) -> i64 {
    (0..n).filter(|i| 18 + i % 62 < 40).count() as i64
}

/// Heap allocations (growth included) of one evaluation of the compiled
/// body over `n` persons, after a warm-up run that builds the name index.
fn allocations(n: usize) -> u64 {
    let mut store = Store::new();
    xqd_xml::parse_document(&mut store, &people(n), Some("xmk.xml")).unwrap();
    let module = parse_query(BODY).unwrap();
    let plan = compile_query(&module, true, &StaticContext::default());
    let mut resolver = LocalResolver;
    let mut ev = Evaluator::new(&mut store, &mut resolver);
    let want = vec![Item::Atom(xqd_xquery::Atomic::Int(under_40(n)))];
    assert_eq!(plan.eval(&mut ev).unwrap(), want, "warm-up");
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let result = plan.eval(&mut ev);
    COUNTING.with(|on| on.set(false));
    assert_eq!(result.unwrap(), want);
    COUNT.with(Cell::get)
}

#[test]
fn the_per_person_loop_allocates_only_the_step_output() {
    let (small, large) = (allocations(1_000), allocations(2_000));
    let slope = (large as f64 - small as f64) / 1_000.0;
    eprintln!("{slope:.2} allocations per person ({small} at 1 000 persons, {large} at 2 000)");
    assert!(
        slope <= 3.0,
        "{slope:.2} allocations per person ({small} at 1 000 persons, {large} at 2 000)"
    );
}
