//! The one failure-message helper of the suites that drive live clusters
//! (chaos, recovery, multi-client): a wait that fails says what the cluster
//! knew about itself at that moment.

use tc_core::{Cluster, Transport};

/// `unwrap()` for a result of driving `cluster`: on failure, panic with the
/// error and the cluster's snapshot.
pub trait OrDump<R> {
    fn or_dump<T: Transport>(self, cluster: &Cluster<T>) -> R;
}

impl<R, E: std::fmt::Display> OrDump<R> for Result<R, E> {
    #[track_caller]
    fn or_dump<T: Transport>(self, cluster: &Cluster<T>) -> R {
        self.unwrap_or_else(|e| panic!("{e}\n{}", cluster.snapshot()))
    }
}
