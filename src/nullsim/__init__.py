"""Null-steering coexistence simulator.

A multi-antenna duty-cycled transmitter places spatial nulls toward
uncoordinated single-antenna receivers, guided only by scalar interference
reports.  The package models the antenna weights, the frequency-selective
channel, the hierarchical null search, and the reconfiguration-delay budget
of the feedback protocol.

The package exports the scenario-to-results path; everything else is
imported from its submodule (``nullsim.coexsim``, ``nullsim.nullsearch``,
and so on).
"""

from .beamforming import DegenerateConstraintsError
from .campaign import export_results, load_results, records_from_result
from .coexsim import run_full_protocol
from .nullsearch import DofExhaustedError
from .scenario import ScenarioError, scenario_from_dict

__version__ = "0.1.0"

__all__ = [
    "DegenerateConstraintsError",
    "DofExhaustedError",
    "ScenarioError",
    "export_results",
    "load_results",
    "records_from_result",
    "run_full_protocol",
    "scenario_from_dict",
]
