//! The labeled durability modes.
//!
//! Durability policy — *when* appended bytes are forced to stable storage —
//! lives with the log writer (`bitempo-wal`); the bytes it writes are framed
//! by `core::frame`. This module only defines the three labeled
//! modes so every layer names them identically.

/// When a committed transaction's WAL bytes are forced to stable storage.
///
/// The three labeled modes of the throughput/durability trade-off. The
/// labels (`dur_strict` / `dur_batched_Nms` / `dur_async`) are shared
/// vocabulary across tuning, bench reports and CI, so commit cost is never
/// reported without naming the guarantee it bought.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// fsync once per commit: an acknowledged commit is durable.
    Strict,
    /// Group commit: a flusher coalesces appended commits and makes them
    /// durable together every `N` milliseconds. A commit is durable once
    /// the flusher acknowledges its batch, not when `append` returns.
    Batched(u32),
    /// Append without syncing: the OS (or process lifetime) decides. A
    /// crash may lose any suffix of acknowledged commits.
    Async,
}

impl DurabilityMode {
    /// The canonical mode label: `dur_strict`, `dur_batched_10ms`,
    /// `dur_async`.
    pub fn label(&self) -> String {
        match self {
            DurabilityMode::Strict => "dur_strict".to_string(),
            DurabilityMode::Batched(ms) => format!("dur_batched_{ms}ms"),
            DurabilityMode::Async => "dur_async".to_string(),
        }
    }
}

impl Default for DurabilityMode {
    /// No sync by default: durability is an explicit tuning decision, like
    /// building an index, and only takes effect where a WAL is attached.
    fn default() -> DurabilityMode {
        DurabilityMode::Async
    }
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_roundtrip() {
        assert_eq!(DurabilityMode::Strict.label(), "dur_strict");
        assert_eq!(
            DurabilityMode::Batched(10).label(),
            "dur_batched_10ms".to_string()
        );
        assert_eq!(DurabilityMode::Async.label(), "dur_async");
        assert_eq!(DurabilityMode::default(), DurabilityMode::Async);
    }
}
