//! `crossbeam::channel` mapped onto `std::sync::mpsc`, which keeps the
//! one property the protocol drivers rely on: a receive fails once every
//! sender is dropped.
pub mod channel {
    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
