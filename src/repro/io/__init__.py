"""Serialization of conflict graphs, societies and schedules.

Plain-text / JSON formats so that schedules produced by this package can be
consumed by other tools (and so the CLI can operate on files):

* edge-list text files for conflict graphs (``u v`` per line, ``#`` comments),
* JSON documents for societies (families, children, couples),
* JSON documents for perfectly periodic schedules (per-node period/phase),
* CSV calendars (one row per holiday, the hosting families as columns),
* JSONL experiment records (one result cell per line, stream/append safe),
* a SQLite-backed :class:`~repro.io.store.ResultStore` keyed by ``cell_id``
  (the cross-campaign cache; JSONL stays the wire format).
"""

from repro.io.graphs import (
    graph_from_json,
    graph_to_json,
    load_edge_list,
    read_graph_json,
    save_edge_list,
    write_graph_json,
)
from repro.io.schedules import (
    calendar_rows,
    load_periodic_schedule,
    periodic_schedule_from_dict,
    periodic_schedule_to_dict,
    save_periodic_schedule,
    write_calendar_csv,
)
from repro.io.results import (
    read_records_jsonl,
    record_from_dict,
    record_to_dict,
    write_records_jsonl,
)
from repro.io.societies import load_society, save_society, society_from_dict, society_to_dict
from repro.io.store import CACHED_PARAM, ResultStore

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "graph_to_json",
    "graph_from_json",
    "read_graph_json",
    "write_graph_json",
    "periodic_schedule_to_dict",
    "periodic_schedule_from_dict",
    "save_periodic_schedule",
    "load_periodic_schedule",
    "calendar_rows",
    "write_calendar_csv",
    "society_to_dict",
    "society_from_dict",
    "save_society",
    "load_society",
    "record_to_dict",
    "record_from_dict",
    "write_records_jsonl",
    "read_records_jsonl",
    "ResultStore",
    "CACHED_PARAM",
]
