"""Pure helpers for perfbench/run.py: gprof flat-profile rollup by module,
and the median/quartile statistics the benchmark bounds are judged on."""

import re
import statistics

# The simulator's modules: one directory under src/, one rc::<module>
# namespace each. rc::fault is left out on purpose (not measured).
MODULES = ("sim", "net", "server", "hash", "log", "node", "coordinator",
           "client", "ycsb", "load", "obs", "power", "core")
OTHER = "other"

# Type-erased callable wrappers: their frames are charged to the callable
# they run, found in their template arguments, or to the kernel (sim).
_WRAPPERS = ("rc::sim::InlineFunction", "rc::sim::InlineTask")
# Operators whose names would upset the bracket matching below.
_OPERATORS = re.compile(r"operator(<<=?|>>=?|<=>|<=|>=|->\*?|<|>|\(\))")
_QUALIFIED = re.compile(r"[A-Za-z_][\w]*(?:::[A-Za-z_~][\w]*)+")
_FLAT_LINE = re.compile(
    r"^\s*(\d+\.\d+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s+"
    r"(?:(\d+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s+)?(\S.*)$")


def _outside_parens(name):
    """Yield (angle_depth, text) runs of `name` that lie outside any
    parentheses: function parameter lists and function types do not say
    whose code a frame is."""
    name = _OPERATORS.sub("operator", name)
    angle, paren, start = 0, 0, 0
    for i, ch in enumerate(name):
        if ch in "<>()":
            if paren == 0 and i > start:
                yield angle, name[start:i]
            if ch == "<" and paren == 0:
                angle += 1
            elif ch == ">" and paren == 0:
                angle -= 1
            elif ch == "(":
                paren += 1
            elif ch == ")":
                paren -= 1
            start = i + 1
    if paren == 0 and start < len(name):
        yield angle, name[start:]


def _rc_module(qualified):
    parts = qualified.split("::")
    if len(parts) >= 2 and parts[0] == "rc" and parts[1] in MODULES:
        return parts[1]
    return None


def module_of(name):
    """The module a gprof frame's self time is charged to.

    rc::<module>:: frames go to <module>. InlineFunction frames and std::
    template frames go to the innermost rc:: name in their template
    arguments (deepest angle-bracket nesting; the last one on a tie), or
    to sim for a wrapper and other for std:: when there is none. Anything
    else (libc stubs, main, the driver itself) is other.
    """
    runs = list(_outside_parens(name))
    head = "".join(text for depth, text in runs if depth == 0)
    head_names = _QUALIFIED.findall(head)
    # The last qualified name at depth 0 is the function; any before it is
    # a template function's return type.
    outer = head_names[-1] if head_names else ""
    wrapper = outer.startswith(_WRAPPERS)
    if not wrapper and not outer.startswith(("std::", "__gnu_cxx::")):
        return _rc_module(outer) or OTHER
    best, best_depth = None, 0
    for depth, text in runs:
        if depth == 0:
            continue
        for q in _QUALIFIED.findall(text):
            m = _rc_module(q)
            if m and not q.startswith(_WRAPPERS) and depth >= best_depth:
                best, best_depth = m, depth
    if best:
        return best
    return "sim" if wrapper else OTHER


def parse_flat(text):
    """(self_seconds, name) for each function row of `gprof -b -p`."""
    rows = []
    for line in text.splitlines():
        m = _FLAT_LINE.match(line)
        if m:
            rows.append((float(m.group(3)), m.group(7).strip()))
    return rows


def rollup(rows):
    """Self seconds per module, plus OTHER; the values sum to the total."""
    out = dict.fromkeys(MODULES + (OTHER,), 0.0)
    for seconds, name in rows:
        out[module_of(name)] += seconds
    return out


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else 0.0
