#![forbid(unsafe_code)]
//! # toc-data — synthetic datasets and the out-of-core mini-batch store
//!
//! [`synth`] generates datasets whose sparsity, distinct-value counts and
//! cross-row redundancy match the profiles of the paper's six evaluation
//! datasets (Table 5). [`store`] holds the memory-budgeted batch stores
//! with real disk spill that reproduce the in-memory/out-of-core regimes
//! of the end-to-end experiments (Tables 6–7, Figures 9–11): the sharded,
//! prefetching [`ShardedSpillStore`], whose one segment table holds
//! built and streamed batches alike and whose spilled batches stripe
//! round-robin across its shard files. [`io`] is the spill read path
//! underneath — positional reads, the per-shard bandwidth EWMAs and the
//! IO counters — and [`testing`] holds the simulated device model and the
//! read and write faults that tests, benches and the CLI's `--mbps` flag
//! plug into it.
//! [`serve`] layers the multi-tenant job server on top: many concurrent
//! training jobs over one shared store and one heat-aware compressed
//! batch cache.

pub mod csv;
pub mod ingest;
pub mod io;
pub mod serve;
pub mod store;
pub mod synth;
pub mod testing;

pub use csv::{follow_rows, stream_rows, CsvError, CsvStream, FollowOptions};
pub use ingest::{
    ingest_csv_container, sidecar_path, CheckpointKind, ContainerIngest, CsvContainerJob,
    CsvIngestOutcome, EncodeWorkspace, IngestCheckpoint, IngestError, IngestStats, StoreIngest,
};

pub use io::{IoSnapshot, IoStats, LatencyHistogram, SeekableContainer, LATENCY_BUCKETS};
pub use serve::{BatchCache, JobOutcome, JobServer, JobSpec, ServeConfig, TenantProvider};
pub use store::{ShardedSpillStore, StoreConfig};
pub use synth::{
    drifting_matrix, generate, generate_preset, Dataset, DatasetPreset, SynthConfig, TaskKind,
};
pub use testing::{DeviceProfile, FaultPlan, FaultStats};
