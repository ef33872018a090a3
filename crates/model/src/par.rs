//! The suite's one parallel fan-out.

/// Maps `f` over the indices `0..len` on up to `workers` scoped threads
/// and returns the results **in index order**.
///
/// Workers claim indices one at a time from a shared atomic counter, so
/// uneven per-item costs balance themselves. Each worker builds its own
/// state with `init` once and hands it to every `f` call it makes (an
/// arena or scratch buffer reused across items). With `workers <= 1`, or
/// fewer than two items, everything runs on the calling thread with a
/// single state. The output depends only on `f`, never on the schedule,
/// whenever each result is a pure function of its index.
///
/// # Panics
///
/// Re-raises the first worker panic (with its original payload) after
/// every worker has stopped.
///
/// # Examples
///
/// ```
/// use twca_model::ordered_par_map;
///
/// let squares = ordered_par_map(6, 3, || 0u32, |calls, i| {
///     *calls += 1;
///     i * i
/// });
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
/// ```
pub fn ordered_par_map<S, R>(
    len: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R>
where
    R: Send,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = workers.min(len);
    if workers <= 1 {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            return done;
                        }
                        done.push((i, f(&mut state, i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_worker_count_yields_the_serial_order() {
        let serial = ordered_par_map(37, 1, || (), |_, i| i * 3 + 1);
        for workers in [0, 2, 4, 64] {
            assert_eq!(
                ordered_par_map(37, workers, || (), |_, i| i * 3 + 1),
                serial
            );
        }
        assert!(ordered_par_map(0, 4, || (), |_, i| i).is_empty());
    }

    #[test]
    fn each_worker_reuses_one_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let states = AtomicUsize::new(0);
        let counts = ordered_par_map(
            100,
            3,
            || {
                states.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |calls, _| {
                *calls += 1;
                *calls
            },
        );
        let states = states.load(Ordering::Relaxed);
        assert!((1..=3).contains(&states), "{states} states");
        // Each state's first item sees a count of 1; every other item
        // ran on a state an earlier item of the same worker had used.
        let fresh = counts.iter().filter(|&&c| c == 1).count();
        assert!(fresh >= 1 && fresh <= states, "{fresh} fresh of {states}");
        assert_eq!(counts.len(), 100);
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn worker_panics_propagate() {
        ordered_par_map(
            8,
            2,
            || (),
            |_, i| {
                assert!(i != 5, "item 5");
                i
            },
        );
    }
}
