"""Toolkit for dimer tree quivers and their syzygy combinatorics."""

from .quiver import (
    Arrow,
    Check,
    ChordlessCycle,
    CyclePath,
    PotentialTerm,
    Quiver,
    QuiverError,
    Report,
    StructureReport,
    ValidationReport,
    WeightReport,
    analyze_structure,
    build_potential,
    chordless_cycles,
    cycle_path,
    load_quiver,
    parse_quiver,
    validate_dimer_tree,
    weight_report,
)

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "Check",
    "ChordlessCycle",
    "CyclePath",
    "PotentialTerm",
    "Quiver",
    "QuiverError",
    "Report",
    "StructureReport",
    "ValidationReport",
    "WeightReport",
    "analyze_structure",
    "build_potential",
    "chordless_cycles",
    "cycle_path",
    "load_quiver",
    "parse_quiver",
    "validate_dimer_tree",
    "weight_report",
]
