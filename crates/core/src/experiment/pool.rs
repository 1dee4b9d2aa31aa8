//! The session's thread pool: one FIFO queue of fan-outs, drained by up to
//! one thread per core.
//!
//! A fan-out ([`Pool::map`]) is one batch with a cursor its threads share,
//! so uneven item cost — a MESI cell takes far longer than a DeNovo one —
//! still balances. A thread always takes the next item of the oldest batch,
//! so a later batch starts no item until every item of the earlier ones has
//! been taken, and the submitter waits for its results in input order.
//! Threads start on the first fan-out of two or more items, never more than
//! the cores or the batch, and are joined when the pool drops. Jobs own
//! their context: the pool outlives any one call, and the crate forbids the
//! `unsafe` a borrowed context would need.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

thread_local! {
    /// Whether this thread is a pool thread. A fan-out from inside a job
    /// runs inline: queued, it would wait behind the batch that holds this
    /// thread, and with every thread so placed nothing would run.
    static ON_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Runs one item of a batch and returns how to report its result.
type Job = Arc<dyn Fn(usize) -> Box<dyn FnOnce() + Send> + Send + Sync>;

/// A queued batch, with the cursor its threads share.
struct Batch {
    job: Job,
    next: usize,
    len: usize,
}

#[derive(Default)]
struct Queue {
    batches: VecDeque<Batch>,
    closed: bool,
}

/// What the pool's threads share with it.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Shared {
    /// The queue. No job runs under the lock, so a poisoned one is still
    /// consistent.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A pool thread: runs the next item of the oldest batch until the pool
    /// is dropped.
    fn work(&self) {
        ON_POOL.set(true);
        let mut queue = self.queue();
        loop {
            let Some(batch) = queue.batches.front_mut() else {
                if queue.closed {
                    return;
                }
                queue = self
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let index = batch.next;
            batch.next += 1;
            let job = if batch.next == batch.len {
                queue.batches.pop_front().expect("the front batch").job
            } else {
                Arc::clone(&batch.job)
            };
            drop(queue);
            // Let go of the batch before reporting: once the submitter has
            // every result it holds the only reference, so the job's context
            // (a session clone, say) is dropped by the submitter, never here.
            let report = job(index);
            drop(job);
            report();
            queue = self.queue();
        }
    }
}

/// A batch's results, filled in as its items finish, and how many are
/// still out.
struct Results<R> {
    slots: Mutex<(Vec<Option<thread::Result<R>>>, usize)>,
    all_in: Condvar,
}

impl<R> Results<R> {
    /// The table. Every update is one slot and one count, so a poisoned
    /// lock still guards a consistent table.
    fn slots(&self) -> MutexGuard<'_, (Vec<Option<thread::Result<R>>>, usize)> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn put(&self, index: usize, result: thread::Result<R>) {
        let mut slots = self.slots();
        slots.0[index] = Some(result);
        slots.1 -= 1;
        if slots.1 == 0 {
            self.all_in.notify_one();
        }
    }
}

/// A FIFO thread pool (see the module docs).
pub(crate) struct Pool {
    /// The most threads this pool starts; below two, every fan-out runs
    /// inline.
    size: usize,
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    batches: AtomicU64,
}

impl Default for Pool {
    /// A pool of up to one thread per available core.
    fn default() -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        Pool::with_threads(
            *CORES.get_or_init(|| {
                thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }),
        )
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (threads, batches) = (self.threads(), self.batches());
        write!(
            f,
            "Pool({threads} of {} threads, {batches} batches)",
            self.size
        )
    }
}

impl Pool {
    /// A pool of up to `size` threads.
    pub(crate) fn with_threads(size: usize) -> Self {
        Pool {
            size,
            shared: Arc::default(),
            threads: Mutex::default(),
            batches: AtomicU64::new(0),
        }
    }

    /// Threads this pool has started.
    pub(crate) fn threads(&self) -> u64 {
        self.handles().len() as u64
    }

    /// Fan-outs of two or more items this pool was handed, queued or (on
    /// one core, or inside a job) run inline.
    pub(crate) fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    fn handles(&self) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.threads.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maps `f` over `items` behind every batch queued before this one and
    /// returns the results in input order. Each item is moved into its call
    /// and dropped when that call returns or panics, not when the batch
    /// ends. An item that panics is resumed here, with its own payload, once
    /// every item has finished.
    pub(crate) fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let len = items.len();
        if len < 2 {
            return items.into_iter().map(f).collect();
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        if ON_POOL.get() || !self.start(len) {
            return items.into_iter().map(f).collect();
        }
        // Items report into one table, and only the last wakes the
        // submitter: a wake-up per item made two concurrent warm requests
        // 10 % slower at the median.
        let results = Arc::new(Results {
            slots: Mutex::new(((0..len).map(|_| None).collect(), len)),
            all_in: Condvar::new(),
        });
        // The cursor hands out each index once, so each item is taken once.
        let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let job: Job = Arc::new({
            let results = Arc::clone(&results);
            move |index| -> Box<dyn FnOnce() + Send> {
                let item = items[index]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("each item is taken once");
                // A panic is the item's result: the submitter resumes it, and
                // this thread goes on to the next item.
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(item)));
                let results = Arc::clone(&results);
                Box::new(move || results.put(index, result))
            }
        });
        self.shared.queue().batches.push_back(Batch {
            job: Arc::clone(&job),
            next: 0,
            len,
        });
        self.shared.ready.notify_all();
        let mut slots = results.slots();
        while slots.1 > 0 {
            slots = results
                .all_in
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let slots = std::mem::take(&mut slots.0);
        drop(job);
        slots
            .into_iter()
            .map(|slot| match slot.expect("every item reports") {
                Ok(result) => result,
                Err(payload) => panic::resume_unwind(payload),
            })
            .collect()
    }

    /// Starts threads until there is one per item of a `len`-item batch or
    /// per core, whichever is fewer; returns whether any thread runs.
    fn start(&self, len: usize) -> bool {
        let want = if self.size < 2 { 0 } else { self.size.min(len) };
        let mut threads = self.handles();
        while threads.len() < want {
            let shared = Arc::clone(&self.shared);
            let spawned = thread::Builder::new()
                .name(format!("tw-pool-{}", threads.len()))
                .spawn(move || shared.work());
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(_) => break,
            }
        }
        !threads.is_empty()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.queue().closed = true;
        self.shared.ready.notify_all();
        // Jobs let go of their context before reporting, so a submitter
        // drops the last owner; were a job ever to drop it, its thread is
        // left to leave once the job returns, since joining itself would
        // fail.
        let me = thread::current().id();
        for handle in self.handles().drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentSpec, ScaleProfile, Session, WorkloadSet};
    use std::sync::mpsc::{self, Receiver};
    use std::time::Duration;
    use tw_types::ProtocolKind;
    use tw_workloads::BenchmarkKind;

    /// Batches the pool holds right now.
    fn queued(pool: &Pool) -> usize {
        pool.shared.queue().batches.len()
    }

    #[test]
    fn map_preserves_order() {
        let pool = Pool::with_threads(4);
        let out = pool.map((0..1000u64).collect(), |x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let pool = Pool::with_threads(4);
        assert!(pool.map(Vec::<u32>::new(), |x| x).is_empty());
        assert_eq!(pool.map(vec![7u32], |x| x + 1), vec![8]);
        assert_eq!((pool.threads(), pool.batches()), (0, 0), "nothing to share");
    }

    #[test]
    fn one_core_runs_inline() {
        let pool = Pool::with_threads(1);
        assert_eq!(pool.map(vec![1u32, 2, 3], |x| x * 3), vec![3, 6, 9]);
        assert_eq!((pool.threads(), pool.batches()), (0, 1));
    }

    #[test]
    fn uneven_work_is_balanced() {
        let pool = Pool::with_threads(4);
        let out = pool.map((0..64u64).collect(), |x| {
            // Vastly uneven per-item cost.
            let spins = if x % 8 == 0 { 100_000 } else { 10 };
            (0..spins).fold(x, |acc, _| std::hint::black_box(acc.wrapping_add(1)))
        });
        assert_eq!(out.len(), 64);
        assert_eq!(pool.threads(), 4);
    }

    #[test]
    fn a_later_batch_waits_until_the_earlier_cursor_is_exhausted() {
        let pool = Arc::new(Pool::with_threads(2));
        // Batch A: four items, each parked on its own gate until released.
        let (log, events) = mpsc::channel::<(char, usize)>();
        let mut gates = Vec::new();
        let mut items = Vec::new();
        for i in 0..4 {
            let (open, gate) = mpsc::channel::<()>();
            gates.push(open);
            items.push((i, gate));
        }
        let a = thread::spawn({
            let (pool, log) = (Arc::clone(&pool), log.clone());
            move || {
                pool.map(items, move |(i, gate): (usize, Receiver<()>)| {
                    log.send(('A', i)).unwrap();
                    gate.recv().unwrap();
                })
            }
        });
        let mut first: Vec<_> = (0..2).map(|_| events.recv().unwrap()).collect();
        first.sort_unstable();
        assert_eq!(first, [('A', 0), ('A', 1)], "both threads took an item");
        // Batch B, queued from another thread while A holds both threads.
        let b = thread::spawn({
            let pool = Arc::clone(&pool);
            move || pool.map(vec![0usize, 1], move |i| log.send(('B', i)).unwrap())
        });
        while queued(&pool) < 2 {
            thread::yield_now();
        }
        // Each released thread takes A's next item, not B's first.
        gates[0].send(()).unwrap();
        assert_eq!(events.recv().unwrap(), ('A', 2));
        gates[1].send(()).unwrap();
        assert_eq!(events.recv().unwrap(), ('A', 3));
        assert_eq!(queued(&pool), 1, "A's cursor is exhausted, B waits");
        gates[2].send(()).unwrap();
        gates[3].send(()).unwrap();
        let mut rest: Vec<_> = (0..2).map(|_| events.recv().unwrap()).collect();
        rest.sort_unstable();
        assert_eq!(rest, [('B', 0), ('B', 1)]);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(pool.batches(), 2);
    }

    #[test]
    fn a_fan_out_inside_a_job_runs_inline() {
        let pool = Arc::new(Pool::with_threads(2));
        let inner = Arc::clone(&pool);
        let out = pool.map(vec![1u64, 2, 3, 4], move |x| {
            inner.map(vec![x, x * 10], |y| y + 1).iter().sum::<u64>()
        });
        assert_eq!(out, vec![13, 24, 35, 46]);
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn a_panicking_item_is_resumed_on_the_submitter_and_the_pool_survives() {
        let pool = Pool::with_threads(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..8usize).collect(), |i| {
                if i == 5 {
                    panic!("item {i} refused");
                }
                i
            })
        }))
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<String>().unwrap(), "item 5 refused");
        // Both threads are still there: each of two items waits for the
        // other, which only two live threads can satisfy.
        let meet = Arc::new(std::sync::Barrier::new(2));
        let ids = pool.map(vec![0, 1], move |_| {
            meet.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert_eq!(pool.threads(), 2);
    }

    /// Says which item it was when it drops.
    struct Tell(usize, mpsc::Sender<usize>);

    impl Drop for Tell {
        fn drop(&mut self) {
            let _ = self.1.send(self.0);
        }
    }

    /// A two-item batch whose item 1 is parked on a gate while item 0
    /// returns, or panics: item 0 is dropped before the batch ends.
    fn item_zero_is_dropped_while_item_one_is_parked(panics: bool) {
        let pool = Arc::new(Pool::with_threads(2));
        let (tell, dropped) = mpsc::channel();
        let (started, starts) = mpsc::channel();
        let (open, gate) = mpsc::channel::<()>();
        let items = vec![(Tell(0, tell.clone()), None), (Tell(1, tell), Some(gate))];
        let batch = thread::spawn({
            let pool = Arc::clone(&pool);
            move || {
                pool.map(items, move |(item, gate): (Tell, Option<Receiver<()>>)| {
                    started.send(item.0).unwrap();
                    match gate {
                        Some(gate) => gate.recv().unwrap(),
                        None if panics => panic!("item 0 refused"),
                        None => {}
                    }
                })
            }
        });
        let mut both: Vec<usize> = (0..2).map(|_| starts.recv().unwrap()).collect();
        both.sort_unstable();
        assert_eq!(both, [0, 1], "both items are running");
        assert_eq!(dropped.recv_timeout(Duration::from_secs(60)), Ok(0));
        assert!(dropped.try_recv().is_err(), "item 1 is still parked");
        open.send(()).unwrap();
        assert_eq!(batch.join().is_err(), panics);
        assert_eq!(dropped.recv(), Ok(1));
    }

    #[test]
    fn an_item_is_dropped_when_its_call_returns() {
        item_zero_is_dropped_while_item_one_is_parked(false);
    }

    #[test]
    fn a_panicking_item_is_dropped_too() {
        item_zero_is_dropped_while_item_one_is_parked(true);
    }

    #[test]
    fn the_last_session_clone_joins_the_pool_on_drop() {
        let plan = ExperimentSpec::subset(
            vec![ProtocolKind::Mesi, ProtocolKind::DeNovo],
            vec![BenchmarkKind::Fft],
            ScaleProfile::Tiny,
        )
        .compile(&WorkloadSet::new())
        .unwrap();
        for _ in 0..100 {
            let session = Session::with_threads(2);
            // Every job of `execute` holds a clone of the session. The
            // submitter, not a pool thread, drops the last of them, so the
            // clone dropped here is the last one, and its drop joins
            // every thread rather than leaving one to join itself.
            session.execute(&plan).unwrap();
            assert_eq!(session.counters().pool_threads, 2);
            // Each pool thread holds the shared queue until it returns.
            let shared = Arc::downgrade(&session.pool().shared);
            drop(session);
            assert!(
                shared.upgrade().is_none(),
                "a pool thread outlived its session"
            );
        }
    }
}
