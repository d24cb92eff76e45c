"""Speculative-window extraction from traced ROB signals.

Paper §3.2, Leakage Detector Step 1: "the start and end of each
speculative window are defined […] by tracing speculative execution
indicators, such as the processor's Re-order Buffer (RoB)": each
micro-op carries an ``unsafe`` signal marking the start of a window, and
the RoB receives ``brupdate``-style resolution signals that confirm the
(mis)prediction and close it.

Our core latches exactly those events onto dedicated traced signals —
``rob.disp_tag``/``disp_pc``/``disp_word`` on dispatch of a speculation
source, ``rob.res_tag``/``res_mispredict`` on resolution — and this
module reconstructs the windows *purely from the trace*, never from
simulator-internal state.  (The core's ground-truth window list exists
only so tests can validate this extraction.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.trace import SignalTrace


@dataclass(frozen=True)
class RobSignalMap:
    """Names of the ROB indicator signals in the trace."""

    disp_tag: str = "boom.rob.disp_tag"
    disp_pc: str = "boom.rob.disp_pc"
    disp_word: str = "boom.rob.disp_word"
    res_tag: str = "boom.rob.res_tag"
    res_mispredict: str = "boom.rob.res_mispredict"


@dataclass(frozen=True)
class DetectedWindow:
    """One speculative window recovered from the trace."""

    tag: int
    start: int
    end: int
    pc: int
    word: int
    mispredicted: bool
    resolved: bool = True


def extract_windows(
    trace: SignalTrace,
    signal_map: RobSignalMap | None = None,
) -> list[DetectedWindow]:
    """Recover all speculative windows from a signal trace.

    Replays the change events while tracking the dispatch/resolution
    strobe values; a ``disp_tag`` change opens a window (the pc/word
    signals are written before the tag, so their running values already
    belong to this dispatch), a matching ``res_tag`` change closes it.
    Windows still open at the end of the trace close unresolved.
    """
    signal_map = signal_map or RobSignalMap()
    ix_disp_tag = trace.index_of(signal_map.disp_tag)
    ix_disp_pc = trace.index_of(signal_map.disp_pc)
    ix_disp_word = trace.index_of(signal_map.disp_word)
    ix_res_tag = trace.index_of(signal_map.res_tag)
    ix_res_mispredict = trace.index_of(signal_map.res_mispredict)

    disp_pc = trace.initial[ix_disp_pc]
    disp_word = trace.initial[ix_disp_word]
    res_mispredict = trace.initial[ix_res_mispredict]

    open_windows: dict[int, tuple[int, int, int]] = {}  # tag -> (start, pc, word)
    windows: list[DetectedWindow] = []

    # Replay only the five indicator signals' events (one filtered scan
    # of the signal column) instead of the full change stream — walked
    # positionally over the columns, no event objects built.
    positions = trace.signal_event_positions({
        ix_disp_tag, ix_disp_pc, ix_disp_word, ix_res_tag, ix_res_mispredict,
    })
    cycles, signals, _olds, news = trace.columns()
    for position in positions:
        signal = signals[position]
        new = news[position]
        if signal == ix_disp_pc:
            disp_pc = new
        elif signal == ix_disp_word:
            disp_word = new
        elif signal == ix_res_mispredict:
            res_mispredict = new
        elif signal == ix_disp_tag:
            open_windows[new] = (cycles[position], disp_pc, disp_word)
        elif signal == ix_res_tag:
            opened = open_windows.pop(new, None)
            if opened is not None:
                start, pc, word = opened
                windows.append(DetectedWindow(
                    tag=new, start=start, end=cycles[position],
                    pc=pc, word=word,
                    mispredicted=bool(res_mispredict),
                ))

    for tag, (start, pc, word) in open_windows.items():
        windows.append(DetectedWindow(
            tag=tag, start=start, end=trace.final_cycle,
            pc=pc, word=word, mispredicted=False, resolved=False,
        ))
    windows.sort(key=lambda w: (w.start, w.tag))
    return windows
