"""Homogeneous NFA model, regex/ANML front ends, and graph analysis."""

from .automaton import Automaton, Network, StartKind, State
from .symbolset import ALPHABET_SIZE, SymbolSet
from .regex import RegexError, compile_regex
from .analysis import analyze_automaton, analyze_network, depth_buckets
from .anml import network_from_anml, network_to_anml
from .transforms import duplicate_network, merge_common_prefixes
from .mnrl import network_from_mnrl, network_to_mnrl
from .elements import Counter, CounterMode, ElementNetwork, Gate, GateKind

__all__ = [
    "ALPHABET_SIZE",
    "Automaton",
    "Network",
    "StartKind",
    "State",
    "SymbolSet",
    "RegexError",
    "compile_regex",
    "analyze_automaton",
    "analyze_network",
    "depth_buckets",
    "network_from_anml",
    "network_to_anml",
    "duplicate_network",
    "merge_common_prefixes",
    "network_from_mnrl",
    "network_to_mnrl",
    "Counter",
    "CounterMode",
    "ElementNetwork",
    "Gate",
    "GateKind",
]
