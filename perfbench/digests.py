"""Canonical simulated results and their pinned sha256 digests.

A point's result is reduced to a small dict of the simulated statistics
a user reads off it, serialized canonically (sorted keys, no
whitespace, floats in their shortest exact ``repr``), and hashed.  Any
change to a simulated number changes the digest; host time never
enters it.  ``pins.json`` holds the digests of every point for the
default seed and one held-out seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def canonical_json(result: dict) -> str:
    """The canonical text of one result: key order and spacing fixed."""
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def digest(result: dict) -> str:
    """sha256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def running_stats(stats) -> dict:
    """The public fields of a ``repro.sim.metrics.RunningStats``."""
    return {
        "count": stats.count,
        "mean": stats.mean,
        "variance": stats.variance,
        "minimum": stats.minimum,
        "maximum": stats.maximum,
    }


def bnf_point(point) -> dict:
    """A ``BNFPoint``'s simulated fields (arbiter counters excluded)."""
    return {
        "offered_rate": point.offered_rate,
        "throughput": point.throughput,
        "latency_ns": point.latency_ns,
        "transaction_latency_ns": point.transaction_latency_ns,
        "packets_delivered": point.packets_delivered,
    }


def timing_point(stats, point) -> dict:
    """One timing-model run: delivery counts, latency stats, BNF fields."""
    return {
        "packets_delivered": stats.packets_delivered,
        "flits_delivered": stats.flits_delivered,
        "packet_latency_ns": running_stats(stats.packet_latency_ns),
        "transaction_latency_ns": running_stats(stats.transaction_latency_ns),
        "bnf": bnf_point(point),
    }


def standalone_point(stats) -> dict:
    """One standalone-model measurement: its matches-per-cycle stats."""
    return {"matches": running_stats(stats)}


def load_pins() -> dict:
    """``{workload: {seed: {point key: digest}}}``; empty when absent."""
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())
