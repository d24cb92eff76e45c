"""RTL frontend: Verilog-subset parsing, elaboration, netlists, simulation.

This package is the reproduction's stand-in for the paper's Pyverilog +
commercial-simulator stack:

* :mod:`repro.rtl.lexer` / :mod:`repro.rtl.parser` / :mod:`repro.rtl.ast`
  parse a synthesizable Verilog-2001 subset (the paper's Listing 1 parses
  verbatim) into an AST;
* :mod:`repro.rtl.elaborate` flattens a module hierarchy into an
  :class:`~repro.rtl.ir.ElaboratedDesign` with hierarchical signal names
  (``top.df1.q``) exactly as the paper's IFG example names them;
* :mod:`repro.rtl.netlist` is the programmatic route to the same IR, used
  by the BOOM-like core model to declare its registers and flow edges;
* :mod:`repro.rtl.sim` compiles elaborated designs into Python and
  simulates them cycle by cycle;
* :mod:`repro.rtl.trace` holds change-event traces (VCD-style) shared by
  the RTL simulator and the core model — the "snapshots" of the paper's
  Microarchitecture Visualizer are reconstructed from these.
"""

from repro.rtl.trace import ChangeEvent, SignalTrace
from repro.rtl.ir import ElaboratedDesign, Signal, SignalKind
from repro.rtl.lexer import Lexer, Token, TokenKind, LexError
from repro.rtl.parser import parse, ParseError
from repro.rtl.elaborate import elaborate, ElaborationError
from repro.rtl.netlist import Netlist
from repro.rtl.writer import write_verilog
from repro.rtl.sim import RtlSimulator, SimulationError

__all__ = [
    "ChangeEvent",
    "SignalTrace",
    "ElaboratedDesign",
    "Signal",
    "SignalKind",
    "Lexer",
    "Token",
    "TokenKind",
    "LexError",
    "parse",
    "ParseError",
    "elaborate",
    "ElaborationError",
    "Netlist",
    "write_verilog",
    "RtlSimulator",
    "SimulationError",
]
