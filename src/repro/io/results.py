"""JSONL serialization of experiment records.

One :class:`~repro.analysis.records.ExperimentRecord` per line, so a result
file can be streamed to while an experiment runs, concatenated across runs,
and tail-truncated by a crash without losing the completed prefix —
:func:`read_records_jsonl` skips a malformed trailing line by default, which
is what makes ``--resume`` safe after an interrupted run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Union

from repro.analysis.records import ExperimentRecord
from repro.utils.logging import get_logger

_log = get_logger("io.results")

__all__ = [
    "record_to_dict",
    "record_from_dict",
    "write_records_jsonl",
    "read_records_jsonl",
]

_PathLike = Union[str, Path]


def record_to_dict(record: ExperimentRecord) -> Dict[str, object]:
    """A JSON-serializable dictionary for one record."""
    return {
        "experiment": record.experiment,
        "workload": record.workload,
        "algorithm": record.algorithm,
        "metrics": dict(record.metrics),
        "params": dict(record.params),
    }


def record_from_dict(payload: Mapping[str, object]) -> ExperimentRecord:
    """Rebuild a record from :func:`record_to_dict` output."""
    return ExperimentRecord(
        experiment=str(payload["experiment"]),
        workload=str(payload["workload"]),
        algorithm=str(payload["algorithm"]),
        metrics=dict(payload.get("metrics", {})),
        params=dict(payload.get("params", {})),
    )


def record_to_json_line(record: ExperimentRecord) -> str:
    """One canonical JSONL line (sorted keys, no trailing newline)."""
    return json.dumps(record_to_dict(record), sort_keys=True)


def write_records_jsonl(path: _PathLike, records: Iterable[ExperimentRecord]) -> Path:
    """Write records to ``path``, one JSON object per line (overwrites)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record_to_json_line(record) + "\n")
    return out


def read_records_jsonl(path: _PathLike, strict: bool = False) -> List[ExperimentRecord]:
    """Read records from a JSONL file.

    With ``strict=False`` (the default) only a malformed *final* line is
    tolerated — that is the signature of a half-written record from an
    interrupted run.  The drop is never silent: a warning names the file,
    line number and byte offset of the truncation, so the damage can be
    inspected (``tail -c +<offset>``) before a resume re-runs the cell.  A
    malformed line anywhere else (disk corruption, a bad concatenation)
    raises :class:`ValueError` either way: silently returning an incomplete
    set would let downstream summaries claim completeness they don't have.
    ``strict=True`` rejects a malformed final line too.
    """
    records: List[ExperimentRecord] = []
    lines: List[tuple] = []  # (lineno, byte offset of line start, stripped text)
    offset = 0
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                lines.append((lineno, offset, line.strip()))
            offset += len(line.encode("utf-8"))
    for position, (lineno, line_offset, line) in enumerate(lines):
        try:
            payload = json.loads(line)
            records.append(record_from_dict(payload))
        except (ValueError, KeyError, TypeError) as exc:
            if strict or position != len(lines) - 1:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
            _log.warning(
                "%s:%d: dropping truncated trailing record at byte offset %d "
                "(crash-interrupted write); its cell will re-run on resume",
                path, lineno, line_offset,
            )
    return records
