#!/usr/bin/env python3
"""Symbolize the samples tools/ipsample.c wrote and print the top symbols.

    python3 tools/ipsample.py PREFIX.PID.ips...

Each .ips file is read with the .maps file beside it. Several files (one
per sampled process or pass) are summed into one table of the 30 most
sampled symbols. A sample is
attributed to the mapped file that contains it, and within the file to
the nearest preceding symbol that `nm` lists; position-independent
executables and shared objects are rebased on the file's first mapping.
A file without symbols (a stripped system library) is one row, and so
are samples outside any file ([anon], [vdso]). OCaml symbols are shown
as Module.function: `camlDarsie_timing__Sm.fetch_1394` reads
`Darsie_timing.Sm.fetch`.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def read_maps(path):
    """The executable mappings: (start, end, path)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 5 or "x" not in parts[1]:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, parts[5] if len(parts) > 5 else "[anon]"))
    return maps


def base_address(maps_path, name):
    """Load address of [name]'s first mapping (file offset 0)."""
    with open(maps_path) as f:
        for line in f:
            parts = line.split()
            if len(parts) > 5 and parts[5] == name and int(parts[2], 16) == 0:
                return int(parts[0].split("-")[0], 16)
    return None


def is_pie(path):
    """True for ET_DYN objects, whose symbols are relative to the load base."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return True
    return len(head) == 18 and head[:4] == b"\x7fELF" and head[16] == 3


SYMBOLS = {}


def symbols(path):
    """Sorted (addresses, names) of [path]'s code symbols, from nm."""
    if path not in SYMBOLS:
        # Only the full symbol table: the nearest exported symbol of a
        # stripped library would name the wrong function.
        try:
            out = subprocess.run(["nm", "-n", "--defined-only", path],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
        except OSError:
            out = ""
        entries = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwW":
                entries.append((int(parts[0], 16), parts[2]))
        entries.sort()
        SYMBOLS[path] = ([a for a, _ in entries], [n for _, n in entries])
    return SYMBOLS[path]


OCAML = re.compile(r"^caml([A-Z][A-Za-z0-9_]*?)\.(.*?)(?:_[0-9]+)?$")


def pretty(name):
    m = OCAML.match(name)
    if not m:
        return name
    return m.group(1).replace("__", ".") + "." + m.group(2)


TOP = 30


def attribute(ips_path, counts):
    maps_path = ips_path[: -len(".ips")] + ".maps"
    maps = read_maps(maps_path)
    starts = [m[0] for m in maps]
    bases = {}
    total = 0
    with open(ips_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            ip = int(line, 16)
            total += 1
            k = bisect.bisect_right(starts, ip) - 1
            if k < 0 or ip >= maps[k][1]:
                counts["[unmapped]"] += 1
                continue
            name = maps[k][2]
            short = os.path.basename(name)
            if not name.startswith("/"):
                counts[short] += 1
                continue
            if name not in bases:
                bases[name] = base_address(maps_path, name) if is_pie(name) else 0
            base = bases[name]
            addrs, names = symbols(name)
            i = bisect.bisect_right(addrs, ip - base) - 1 if base is not None else -1
            counts[pretty(names[i]) if i >= 0 else short] += 1
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ips", nargs="+", help="PREFIX.PID.ips files")
    a = ap.parse_args()
    counts = collections.Counter()
    total = sum(attribute(p, counts) for p in a.ips)
    if total == 0:
        sys.exit("ipsample.py: no samples")
    print("%d samples in %d file(s)" % (total, len(a.ips)))
    for name, n in counts.most_common(TOP):
        print("%7.1f %%  %6d  %s" % (100.0 * n / total, n, name))


if __name__ == "__main__":
    main()
