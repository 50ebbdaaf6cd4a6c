//! Scoped-thread fan-out, re-exported from [`tn_chip::exec`].
//!
//! The evaluator and the experiment harness both split a sample range
//! across workers that each own a cloned chip; [`parallel_chunks`]
//! centralizes the chunking and error plumbing. It lives in `tn-chip`
//! and is re-exported here so existing call sites keep working.
//! (The serving runtime in `tn-serve` owns its own long-lived worker pool
//! instead — this stays the right tool for one-shot offline fan-outs.)

pub use tn_chip::exec::parallel_chunks;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_chunks_cover_range() {
        let results: Vec<Vec<usize>> =
            parallel_chunks(10, 3, |r| Ok::<_, ()>(r.collect::<Vec<_>>())).expect("ok");
        let mut all: Vec<usize> = results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }
}
