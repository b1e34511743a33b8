#!/usr/bin/env python3
"""Where the samples of a scripts/sigprof.c run sit.

    scripts/sigprof-report.py <binary> <samples-file> [--top N] [--callers] [--libs]
    scripts/sigprof-report.py <binary> <samples-file> --symbol SUBSTRING
    scripts/sigprof-report.py <binary> <samples-file> --allocs [--top N]

Without --symbol: one line per function of <binary>, by share of all
samples (symbols from `nm -C -n`), with everything outside the binary
folded into one line per mapped file (`[libc.so.6]`, `[vdso]`, ...).

With --callers (a run recorded with SIGPROF_DEPTH > 1): a sample outside
the binary is charged to the first frame of its stack inside it and
listed as `function <- [libc.so.6]`, which says whose memset or malloc
the time is.

With --libs: a sample in a shared library is also named, `[libc.so.6
~memmove]`, after the nearest symbol below it in `nm -D --defined-only`
of the file the recorded maps name. That is approximate (hence the `~`):
only exported symbols are listed, so a sample in a static function is
charged to whichever export precedes it. In glibc 2.36 the copies
(`__memmove_avx_unaligned_erms` and its siblings, static, picked by an
ifunc) show under `__nss_database_lookup` and the allocator's
`_int_malloc` / `_int_free` under `__default_morecore`; `malloc`, `free`
and `realloc` are exported and read as themselves.

With --allocs (a run recorded with SIGPROF_ALLOCS=1): one line per call
stack of requests of at least 2 KiB, by bytes requested, with the calls
made. A stack is named by its first three functions inside the binary,
innermost first and joined by `<-`; the allocator's own
frames (`alloc::`, `__rust_`, `__rdl_`, ...) are skipped, and stacks
that name the same functions are summed.

Every report starts with the run's page faults (getrusage at exit).

With --symbol: the function whose demangled name contains SUBSTRING and
holds the most samples, disassembled with `objdump -d`, each instruction
with its samples and its share of the function's. A sample sits on the
instruction after the one that stalled.

<binary> must be the file that was profiled (its path is looked up in the
recorded /proc/self/maps to find the load address). Needs binutils' `nm`
and `objdump`; see scripts/sigprof.c for how to record.
"""
import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def read_profile(path):
    """-> (maps, samples, allocs, faults): maps = [(start, end, offset, file)],
    samples = [[pc, caller...]], allocs = [(bytes, calls, [return address...])],
    faults = the `# faults` line's words after the mark, or None."""
    maps, samples, allocs, faults, section = [], [], [], None, None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("#"):
                section = line[1:].strip().split()[0]
                if section == "faults":
                    faults = line[1:].split()[1:]
                continue
            if section == "maps":
                m = re.match(r"([0-9a-f]+)-([0-9a-f]+) \S+ ([0-9a-f]+) \S+ \S+\s*(.*)", line)
                if m:
                    start, end, off = (int(g, 16) for g in m.group(1, 2, 3))
                    maps.append((start, end, off, m.group(4)))
            elif section == "samples" and line:
                samples.append([int(a, 16) for a in line.split()])
            elif section == "allocs" and line:
                bytes_, calls, *stack = line.split()
                allocs.append((int(bytes_), int(calls), [int(a, 16) for a in stack]))
    return maps, samples, allocs, faults


# Frames of the allocator and of the standard library's growth paths: an
# allocation is charged to the first frame past them.
ALLOCATOR_FRAMES = ("alloc::", "<alloc::", "__rust_", "__rdl_", "std::alloc", "core::alloc")
# Functions of the binary that name an allocation's call stack.
ALLOC_FRAMES_SHOWN = 3


def load_bias(binary, maps):
    """Runtime address minus link-time address for `binary`'s mappings."""
    real = os.path.realpath(binary)
    mine = [m for m in maps if m[3] and os.path.realpath(m[3]) == real]
    if not mine:
        sys.exit(f"{binary} is not in the recorded maps; profile and report the same file")
    first = min(mine, key=lambda m: m[2])  # the mapping of file offset 0
    headers = subprocess.run(["objdump", "-p", binary], capture_output=True, text=True, check=True)
    m = re.search(r"LOAD off\s+0x0+\s+vaddr\s+0x([0-9a-f]+)", headers.stdout)
    vaddr0 = int(m.group(1), 16) if m else 0
    return first[0] - first[2] - vaddr0, mine


def text_symbols(binary, dynamic=False):
    """Sorted [(addr, name)] of the functions `nm` knows; with `dynamic`, the exported ones."""
    out = subprocess.run(
        ["nm", "-C", "-n", "--defined-only"] + (["-D"] if dynamic else []) + [binary],
        capture_output=True, text=True, check=True,
    ).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwWi":
            syms.append((int(parts[0], 16), parts[2].split("@")[0]))
    return syms


class Libraries:
    """Nearest exported symbol below an address in a mapped shared library."""

    def __init__(self, maps):
        self.maps = maps
        self.loaded = {}  # file -> (bias, addrs, names), or None if `nm` has nothing

    def symbol(self, path, pc):
        if path not in self.loaded:
            self.loaded[path] = None
            if os.path.isfile(path):
                syms = text_symbols(path, dynamic=True)
                if syms:
                    bias, _ = load_bias(path, self.maps)
                    self.loaded[path] = (bias, [a for a, _ in syms], [n for _, n in syms])
        if self.loaded[path] is None:
            return None
        bias, addrs, names = self.loaded[path]
        i = bisect.bisect_right(addrs, pc - bias) - 1
        return names[i] if i >= 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=30, help="functions to list (default 30)")
    ap.add_argument("--symbol", help="per-instruction shares inside the hottest match")
    ap.add_argument("--callers", action="store_true",
                    help="charge samples outside the binary to their first caller inside it")
    ap.add_argument("--libs", action="store_true",
                    help="name samples in shared libraries by the nearest exported symbol below")
    ap.add_argument("--allocs", action="store_true",
                    help="large allocations by call stack (a run with SIGPROF_ALLOCS=1)")
    args = ap.parse_args()

    maps, samples, allocs, faults = read_profile(args.samples)
    if faults:
        print(f"# page faults: {' '.join(faults)}")
    if args.allocs and not allocs:
        sys.exit("no allocations recorded (was the run made with SIGPROF_ALLOCS=1?)")
    if not args.allocs and not samples:
        sys.exit("no samples recorded (did the run use any CPU time?)")
    bias, mine = load_bias(args.binary, maps)
    syms = text_symbols(args.binary)
    addrs = [a for a, _ in syms]

    def symbol_of(addr):
        """Index into `syms` of the function holding runtime address `addr`, or None."""
        if not any(start <= addr < end for start, end, _, _ in mine):
            return None
        i = bisect.bisect_right(addrs, addr - bias) - 1
        return i if i >= 0 else None

    if args.allocs:
        by_stack = collections.defaultdict(lambda: [0, 0])
        for bytes_, calls, stack in allocs:
            names = []
            for ret in stack:
                i = symbol_of(ret - 1)  # a return address points past its call
                if i is None or syms[i][1].startswith(ALLOCATOR_FRAMES):
                    continue
                if not names or names[-1] != syms[i][1]:
                    names.append(syms[i][1])
                if len(names) == ALLOC_FRAMES_SHOWN:
                    break
            row = by_stack[" <- ".join(names) or "[outside the binary]"]
            row[0] += bytes_
            row[1] += calls
        total = sum(b for b, _ in by_stack.values())
        print(f"# {total / 1e9:.3f} GB requested in allocations of >= 2 KiB, {args.binary}")
        for chain, (bytes_, calls) in sorted(by_stack.items(), key=lambda kv: -kv[1][0])[:args.top]:
            print(f"{100 * bytes_ / total:6.2f}%  {bytes_ / 1e9:8.3f} GB  {calls:9d} calls  {chain}")
        return

    libs = Libraries(maps) if args.libs else None
    by_symbol = collections.Counter()
    inside = collections.defaultdict(collections.Counter)  # symbol index -> {vaddr: n}
    for pc, *stack in samples:
        i = symbol_of(pc)
        if i is not None:
            by_symbol[i] += 1
            inside[i][pc - bias] += 1
            continue
        path = next((f for s, e, _, f in maps if s <= pc < e), "") or "unmapped"
        export = libs.symbol(path, pc) if libs else None
        where = "[" + os.path.basename(path.strip("[]")) + (f" ~{export}]" if export else "]")
        if args.callers:
            # a return address points past its call: look up the byte before
            caller = next((c for c in (symbol_of(ret - 1) for ret in stack) if c is not None), None)
            if caller is not None:
                where = f"{syms[caller][1]} <- {where}"
        by_symbol[where] += 1

    total = len(samples)
    name = lambda k: syms[k][1] if isinstance(k, int) else k
    if not args.symbol:
        print(f"# {total} samples, {args.binary}")
        for k, n in by_symbol.most_common(args.top):
            print(f"{100 * n / total:6.2f}%  {n:7d}  {name(k)}")
        return

    hits = [(n, k) for k, n in by_symbol.items() if isinstance(k, int) and args.symbol in syms[k][1]]
    if not hits:
        sys.exit(f"no sampled function matches {args.symbol!r}")
    n, k = max(hits)
    start = syms[k][0]
    stop = syms[k + 1][0] if k + 1 < len(syms) else start + 0x10000
    print(f"# {syms[k][1]}: {n} of {total} samples ({100 * n / total:.2f}%)")
    dis = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn",
         f"--start-address={start:#x}", f"--stop-address={stop:#x}", args.binary],
        capture_output=True, text=True, check=True,
    ).stdout
    for line in dis.splitlines():
        m = re.match(r"\s*([0-9a-f]+):\s+(.*)", line)
        if not m:
            continue
        here = inside[k].get(int(m.group(1), 16), 0)
        share = f"{100 * here / n:6.2f}% {here:6d}" if here else " " * 14
        print(f"{share}  {m.group(1)}: {m.group(2)}")


if __name__ == "__main__":
    main()
