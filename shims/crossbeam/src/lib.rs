//! Offline shim for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel` with cloneable multi-producer
//! **multi-consumer** senders/receivers (std's mpsc receiver is not
//! cloneable, so this is a small queue + condvar implementation).
//! Only the API surface the workspace uses is present: `unbounded`,
//! `bounded`, `send`, `recv`, `try_recv`, `recv_timeout`.
//!
//! A condvar notify is a futex syscall whether or not anyone waits, so
//! each side counts its parked threads under the mutex and the other
//! side notifies only when that count is non-zero. A thread is counted
//! from before its `wait` (which releases the mutex atomically) until
//! it holds the mutex again, so a notifier that sees zero cannot miss a
//! waiter.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        /// Signalled when an item arrives or the channel disconnects.
        not_empty: Condvar,
        /// Signalled when capacity frees up (bounded mode).
        not_full: Condvar,
        capacity: Option<usize>,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers parked on `not_empty`.
        parked_receivers: usize,
        /// Senders parked on `not_full`.
        parked_senders: usize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    /// Debug is implemented for any `T` (as in the real crate), so
    /// `send(..).expect(..)` works with non-Debug payloads.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// Cloneable producer half.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Cloneable consumer half (multi-consumer: clones compete for
    /// items).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Channel that blocks senders once `cap` items are queued.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked_receivers: 0,
                parked_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Block until the value is queued (bounded mode may wait for
        /// room); errors if every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.shared.capacity {
                    Some(cap) if state.items.len() >= cap => {
                        state.parked_senders += 1;
                        state = self.shared.not_full.wait(state).unwrap();
                        state.parked_senders -= 1;
                    }
                    _ => break,
                }
            }
            self.push(state, value);
            Ok(())
        }

        /// Queue `value` and wake one parked receiver, if any.
        fn push(&self, mut state: MutexGuard<'_, State<T>>, value: T) {
            state.items.push_back(value);
            let wake = state.parked_receivers > 0;
            drop(state);
            if wake {
                self.shared.not_empty.notify_one();
            }
        }

        /// Queue the value only if room is available right now.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let state = self.shared.queue.lock().unwrap();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.shared.capacity {
                if state.items.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            self.push(state, value);
            Ok(())
        }

        /// Number of queued items (diagnostics).
        pub fn len(&self) -> usize {
            self.shared.queue.lock().unwrap().items.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// Error returned by [`Sender::try_send`]. Like [`SendError`],
    /// Debug does not require `T: Debug`.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 && state.parked_receivers > 0 {
                drop(state);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until an item arrives; errors once the channel is empty
        /// and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = state.items.pop_front() {
                    self.freed_room(state);
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.parked_receivers += 1;
                state = self.shared.not_empty.wait(state).unwrap();
                state.parked_receivers -= 1;
            }
        }

        /// After a pop: wake one parked sender, if any, for the room
        /// it freed.
        fn freed_room(&self, state: MutexGuard<'_, State<T>>) {
            let wake = state.parked_senders > 0;
            drop(state);
            if wake {
                self.shared.not_full.notify_one();
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            if let Some(v) = state.items.pop_front() {
                self.freed_room(state);
                return Ok(v);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = state.items.pop_front() {
                    self.freed_room(state);
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.parked_receivers += 1;
                let (s, _) = self
                    .shared
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    .unwrap();
                state = s;
                state.parked_receivers -= 1;
            }
        }

        pub fn len(&self) -> usize {
            self.shared.queue.lock().unwrap().items.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap();
            state.receivers -= 1;
            if state.receivers == 0 && state.parked_senders > 0 {
                drop(state);
                self.shared.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[test]
        fn multi_consumer_competes_for_items() {
            let (tx, rx) = unbounded::<usize>();
            let seen = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let rx = rx.clone();
                let seen = Arc::clone(&seen);
                handles.push(std::thread::spawn(move || {
                    while rx.recv().is_ok() {
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            drop(rx);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(seen.load(Ordering::SeqCst), 100);
        }

        #[test]
        fn recv_errors_after_senders_gone() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            assert_eq!(
                parked(&rx.shared),
                (0, 0),
                "the timed-out wait is uncounted"
            );
        }

        /// `(parked receivers, parked senders)`.
        fn parked<T>(shared: &Shared<T>) -> (usize, usize) {
            let state = shared.queue.lock().unwrap();
            (state.parked_receivers, state.parked_senders)
        }

        /// Spin until `shared` has the given parked counts.
        fn await_parked<T>(shared: &Shared<T>, want: (usize, usize)) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while parked(shared) != want {
                assert!(
                    Instant::now() < deadline,
                    "never parked: {:?}",
                    parked(shared)
                );
                std::thread::yield_now();
            }
        }

        /// Run `f` on a thread of its own. A wake-up the code under test
        /// misses shows as a failed [`woken`], not as a hung test.
        fn spawn_result<R: Send + 'static>(
            f: impl FnOnce() -> R + Send + 'static,
        ) -> std::sync::mpsc::Receiver<R> {
            let (done, result) = std::sync::mpsc::channel();
            std::thread::spawn(move || done.send(f()).unwrap());
            result
        }

        /// The result of a [`spawn_result`] thread that must be woken
        /// by now.
        fn woken<R>(result: &std::sync::mpsc::Receiver<R>) -> R {
            result
                .recv_timeout(Duration::from_secs(10))
                .expect("a parked thread was never woken")
        }

        #[test]
        fn full_bounded_send_blocks_until_a_recv_frees_room() {
            let (tx, rx) = bounded::<u8>(1);
            tx.send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            let sent = {
                let tx = tx.clone();
                spawn_result(move || tx.send(2))
            };
            await_parked(&rx.shared, (0, 1));
            assert!(sent.try_recv().is_err(), "a full channel took a send");
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(woken(&sent), Ok(()));
            assert_eq!(parked(&rx.shared), (0, 0));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn last_sender_drop_wakes_a_parked_receiver() {
            let (tx, rx) = unbounded::<u8>();
            let second = tx.clone();
            let (blocking, timed) = (rx.clone(), rx.clone());
            let a = spawn_result(move || blocking.recv());
            // Past the test's own wait: only a wake-up returns it in time.
            let b = spawn_result(move || timed.recv_timeout(Duration::from_secs(60)));
            await_parked(&rx.shared, (2, 0));
            drop(tx);
            // One sender is left: nobody wakes.
            assert_eq!(parked(&rx.shared), (2, 0));
            drop(second);
            assert_eq!(woken(&a), Err(RecvError));
            assert_eq!(woken(&b), Err(RecvTimeoutError::Disconnected));
            assert_eq!(parked(&rx.shared), (0, 0));
        }

        #[test]
        fn send_wakes_a_parked_receiver() {
            let (tx, rx) = unbounded::<u8>();
            let shared = Arc::clone(&rx.shared);
            let got = spawn_result(move || rx.recv());
            await_parked(&shared, (1, 0));
            tx.send(7).unwrap();
            assert_eq!(woken(&got), Ok(7));
        }

        #[test]
        fn send_fails_with_no_receivers() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }
    }
}
