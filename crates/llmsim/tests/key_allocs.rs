//! Allocation guard for the L3 response-cache hit path. A hit hashes
//! the call's operands and clones the cached response; nothing else on
//! that path may allocate. Counting allocations is deterministic, so
//! this guards the key derivation on any host, however fast it is.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running on another thread would allocate during the count.

use multirag_kg::Value;
use multirag_llmsim::authority::AuthorityFeatures;
use multirag_llmsim::halluc::GeneratedAnswer;
use multirag_llmsim::{ContextProfile, LlmResponseCache, MockLlm, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator that counts `alloc` and `realloc` calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that never touches the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

#[test]
fn response_cache_hits_allocate_only_the_returned_response() {
    let mut schema = Schema::new();
    schema.add_entity_verbatim("CA981");
    schema.add_relation("status");
    let cache = LlmResponseCache::new();
    let mut llm = MockLlm::new(schema, 42).with_response_cache(cache.clone());

    let features = AuthorityFeatures {
        degree: 3,
        max_degree: 10,
        type_consistency: 0.8,
        path_support: 0.5,
        source_reputation: 0.6,
    };
    let cold = llm
        .try_score_authority("CA981|status|s0", &features)
        .unwrap();
    let (warm, allocs) = allocations(|| llm.try_score_authority("CA981|status|s0", &features));
    assert_eq!(warm.unwrap(), cold);
    assert_eq!(cache.hits(), 1, "the second call must hit");
    assert_eq!(allocs, 0, "an authority hit must not allocate");

    let profile = ContextProfile {
        conflict_ratio: 0.4,
        irrelevance_ratio: 0.1,
        coverage: 0.9,
        claims: 5,
    };
    let faithful = vec![Value::from("delayed"), Value::Float(2.5)];
    let distractors = [
        Value::from("on-time"),
        Value::List(vec![Value::Int(3), Value::Null]),
    ];
    let cold = llm
        .try_generate_answer("q1", faithful.clone(), &distractors, &profile, 200)
        .unwrap();
    // The caller builds `faithful` before the call; only the call is
    // counted.
    let owned = faithful.clone();
    let (warm, allocs) = allocations(|| {
        llm.try_generate_answer("q1", owned, &distractors, &profile, 200)
            .unwrap()
    });
    assert_eq!(warm, cold);
    assert_eq!(cache.hits(), 2, "the second generation must hit");
    let (_copy, clone_allocs): (GeneratedAnswer, u64) = allocations(|| cold.clone());
    assert!(
        allocs <= clone_allocs,
        "a generation hit allocated {allocs} times; cloning its answer takes {clone_allocs}"
    );
}
