"""Elastic dataflow-circuit substrate: components, channels, simulator.

This package implements the latency-insensitive circuit model that
Dynamatic-generated VHDL implements on the FPGA: handshaked channels,
eager forks, merges/muxes/branches for control-flow routing, elastic
buffers/FIFOs for storage, and pipelined operators — plus a two-phase
cycle-accurate simulator.
"""

from .token import Token, combine, merge_tags
from .channel import Channel
from .component import Component
from .primitives import Constant, Entry, Fork, Join, Sink, Source
from .routing import Branch, ControlMerge, Merge, Mux, Select
from .buffers import Fifo, OpaqueBuffer, TransparentBuffer, TransparentFifo
from .arith import OP_TABLE, Operator
from .circuit import Circuit
from .schedule import (
    LevelSchedule,
    levelize,
    strongly_connected_components,
    token_flow_adjacency,
    valid_dependence_edges,
)
from .simulator import ENGINES, SimulationStats, Simulator, make_simulator
from .codegen import (
    CompiledPlan,
    CompiledSimulator,
    class_support,
    clear_plan_cache,
    emitted_source,
    plan_cache_stats,
    plan_for,
    why_not_compilable,
)
from .tracing import ChannelTrace, OrderTrace
from .visualize import to_dot

__all__ = [
    "Token",
    "combine",
    "merge_tags",
    "Channel",
    "Component",
    "Entry",
    "Source",
    "Sink",
    "Constant",
    "Fork",
    "Join",
    "Merge",
    "ControlMerge",
    "Mux",
    "Branch",
    "Select",
    "OpaqueBuffer",
    "TransparentBuffer",
    "TransparentFifo",
    "Fifo",
    "Operator",
    "OP_TABLE",
    "Circuit",
    "LevelSchedule",
    "levelize",
    "strongly_connected_components",
    "token_flow_adjacency",
    "valid_dependence_edges",
    "Simulator",
    "SimulationStats",
    "CompiledSimulator",
    "CompiledPlan",
    "make_simulator",
    "ENGINES",
    "class_support",
    "why_not_compilable",
    "plan_for",
    "plan_cache_stats",
    "clear_plan_cache",
    "emitted_source",
    "ChannelTrace",
    "OrderTrace",
    "to_dot",
]
