//! Task-side output buffering: partitioning emissions into frame bins.
//!
//! Each running task owns a [`TaskOutput`]. Emissions are routed by the
//! port's [`Exchange`] to destination nodes and appended to a per-slot
//! [`FrameBuilder`] — one contiguous buffer per (port, destination)
//! instead of a `Vec` of per-record allocations. A frame closes when it
//! holds `bin_capacity` records, and the bin ships (or defers, under
//! flow control) the moment it closes, from the thread running the
//! task: a downstream task can fire on it while its producer still
//! runs, and the frames still open close and ship when the task ends.
//! Building frames per task keeps workers lock-free while they run —
//! the paper's "inside a flowlet task, instructions execute
//! sequentially".
//!
//! A port whose edge combines in-node folds its emissions into a
//! [`CombineBuf`] first. That buffer is the executing *worker's*, on
//! loan from the node's [`CombineShelf`] for the length of the task, so
//! duplicates fold across every task the worker runs; a task's end
//! drains it only as far as the destination's flow-control window has
//! room ([`TaskOutput::into_parts`]), and a flush task empties it before
//! the flowlet completes.
//!
//! The key is hashed once here, at emission, and that hash serves every
//! producer-side use: routing, the combine buffer, and — from the
//! builder's hash column — the statistics fold when the frame closes.
//! It does not ship: the frame carries lengths, keys and values only,
//! and a consumer that shards by key hashes it again.
//! Broadcast ports build one frame and ship cheap clones of it to every
//! node — encode once, refcount per destination.
//!
//! One module per concern: [`output`] is the task's buffer and the
//! drain rule, [`combine`] the arena combine buffers and their shelf,
//! [`flow`] the outbound windows and the deferred queue.

mod combine;
mod flow;
mod output;
#[cfg(test)]
mod tests;

pub(crate) use combine::CombineShelf;
pub use combine::Combiner;
pub(crate) use flow::{record_shipped, FlowControl};
pub(crate) use output::{record_emitted, TaskOutput};
