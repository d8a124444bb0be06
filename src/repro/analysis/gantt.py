"""ASCII Gantt rendering of schedules.

One row per compute resource (plus, optionally, one send and one
receive lane per edge unit and per cloud processor), time rendered
left-to-right, each job drawn with a stable single-character symbol.
Useful to eyeball small schedules — the Figure 1 example renders to a
chart directly comparable with the paper's figure.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from repro.core.resources import Resource, ResourceKind
from repro.core.schedule import Schedule

#: Symbols assigned to jobs round-robin (job 0 -> '0', job 36 -> 'a', ...).
_SYMBOLS = string.digits + string.ascii_uppercase + string.ascii_lowercase


def job_symbol(i: int) -> str:
    """Stable one-character symbol for job ``i``."""
    return _SYMBOLS[i % len(_SYMBOLS)]


@dataclass(frozen=True)
class _Lane:
    label: str
    segments: list  # list of (start, end, job)


def _collect_lanes(schedule: Schedule, show_comm: bool) -> list[_Lane]:
    platform = schedule.instance.platform
    compute: dict[tuple[str, int], list] = {}
    send: dict[int, list] = {j: [] for j in range(platform.n_edge)}
    recv: dict[int, list] = {j: [] for j in range(platform.n_edge)}
    c_recv: dict[int, list] = {k: [] for k in range(platform.n_cloud)}
    c_send: dict[int, list] = {k: [] for k in range(platform.n_cloud)}
    for j in range(platform.n_edge):
        compute[("edge", j)] = []
    for k in range(platform.n_cloud):
        compute[("cloud", k)] = []

    for js in schedule.iter_job_schedules():
        origin = schedule.instance.jobs[js.job_id].origin
        for attempt in js.attempts:
            res = attempt.resource
            key = ("edge", res.index) if res.is_edge else ("cloud", res.index)
            for iv in attempt.execution:
                compute[key].append((iv.start, iv.end, js.job_id))
            if res.is_cloud:
                for iv in attempt.uplink:
                    send[origin].append((iv.start, iv.end, js.job_id))
                    c_recv[res.index].append((iv.start, iv.end, js.job_id))
                for iv in attempt.downlink:
                    c_send[res.index].append((iv.start, iv.end, js.job_id))
                    recv[origin].append((iv.start, iv.end, js.job_id))

    lanes = []
    for j in range(platform.n_edge):
        lanes.append(_Lane(f"edge[{j}]", sorted(compute[("edge", j)])))
        if show_comm:
            if send[j]:
                lanes.append(_Lane(f"edge[{j}] up>", sorted(send[j])))
            if recv[j]:
                lanes.append(_Lane(f"edge[{j}] <dn", sorted(recv[j])))
    for k in range(platform.n_cloud):
        lanes.append(_Lane(f"cloud[{k}]", sorted(compute[("cloud", k)])))
        if show_comm:
            if c_recv[k]:
                lanes.append(_Lane(f"cloud[{k}] >up", sorted(c_recv[k])))
            if c_send[k]:
                lanes.append(_Lane(f"cloud[{k}] dn<", sorted(c_send[k])))
    return lanes


#: Narrowest time axis :func:`render_gantt` draws, in character cells.
MIN_WIDTH = 10


def render_gantt(
    schedule: Schedule,
    *,
    width: int = 80,
    show_comm: bool = True,
    show_legend: bool = True,
) -> str:
    """Render ``schedule`` as an ASCII Gantt chart.

    ``width`` is the number of character cells for the time axis; a
    cell is drawn with a job's symbol when that job occupies more than
    half of the cell's span on that lane.
    """
    if width < MIN_WIDTH:
        raise ValueError(f"width must be at least {MIN_WIDTH}, got {width}")
    span = schedule.makespan()
    if span <= 0:
        return "(empty schedule)"
    lanes = _collect_lanes(schedule, show_comm)
    label_w = max(len(lane.label) for lane in lanes) if lanes else 0
    cell = span / width

    lines = []
    for lane in lanes:
        cells = [" "] * width
        for start, end, job in lane.segments:
            c0 = int(start / cell)
            c1 = max(c0 + 1, int(round(end / cell)))
            for c in range(c0, min(c1, width)):
                # Majority occupancy of the cell wins.
                cell_start, cell_end = c * cell, (c + 1) * cell
                overlap = min(end, cell_end) - max(start, cell_start)
                if overlap >= 0.5 * cell or (c == c0 and overlap > 0 and cells[c] == " "):
                    cells[c] = job_symbol(job)
        lines.append(f"{lane.label:<{label_w}} |{''.join(cells)}|")

    axis = f"{'':<{label_w}} |0{'':{width - 2}}{span:g}|"
    lines.append(axis)

    if show_legend:
        jobs = sorted(js.job_id for js in schedule.iter_job_schedules() if js.attempts)
        legend = "  ".join(f"{job_symbol(i)}=J{i}" for i in jobs)
        lines.append(f"jobs: {legend}")
    return "\n".join(lines)
