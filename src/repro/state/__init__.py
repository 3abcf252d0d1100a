"""Crash-safe run state: atomic writes, checkpoints, and record files.

Long-horizon COCA runs carry state the paper's guarantees depend on -- the
Eq. (17) carbon-deficit queue, the applied-``V`` history, the switching
state, every seeded RNG stream -- and a process crash at slot 5,000 of an
8,760-slot budgeting period used to lose all of it.  This package makes a
run *survivable*:

- :mod:`~repro.state.atomic` -- the shared write-temp + fsync + rename
  pattern, so no consumer of this repo ever reads a torn file;
- :mod:`~repro.state.serialize` -- exact JSON round-trips for the pieces a
  checkpoint must carry (numpy arrays, RNG bit-generator states) plus the
  environment fingerprint a resume validates against;
- :mod:`~repro.state.checkpoint` -- an append-only, CRC-framed checkpoint
  log whose records carry only the rows added since the previous one;
- :mod:`~repro.state.records` -- :class:`~repro.sim.metrics.SimulationRecord`
  save/load for bit-exact golden diffs.

The contract extends the fault subsystem's replay guarantee across process
boundaries: kill a run at slot ``k``, ``repro resume`` from the newest
valid checkpoint, and the remaining slots replay **bit-identically** to an
uninterrupted run.  See ``docs/OPERATIONS.md`` for the runbook.
"""

from .atomic import atomic_write_bytes, atomic_write_text, commit_file, fsync_dir
from .checkpoint import (
    CHECKPOINT_VERSION,
    LOG_NAME,
    Checkpoint,
    CheckpointError,
    CheckpointWriter,
    checkpoint_files,
    dumps_checkpoint,
    latest_valid_checkpoint,
    load_checkpoint,
    loads_checkpoint,
)
from .records import load_record, record_mismatches, save_record
from .serialize import (
    canonical_dumps,
    decode_array,
    decode_rng,
    encode_array,
    encode_rng,
    environment_fingerprint,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointWriter",
    "LOG_NAME",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_dumps",
    "checkpoint_files",
    "commit_file",
    "decode_array",
    "decode_rng",
    "dumps_checkpoint",
    "encode_array",
    "encode_rng",
    "environment_fingerprint",
    "fsync_dir",
    "latest_valid_checkpoint",
    "load_checkpoint",
    "load_record",
    "loads_checkpoint",
    "record_mismatches",
    "save_record",
]
