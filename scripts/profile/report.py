#!/usr/bin/env python3
"""Summarizes a sampler.c profile: where the process spent its CPU time.

    python3 scripts/profile/report.py prof.<pid>.txt [--top N]

Run it before the profiled binary is rebuilt: addresses are looked up in
the files the process had mapped.

Symbolizes every sampled address with addr2line (inlined frames included)
and prints three tables, each as a share of all samples:

  leaf       the innermost function of the interrupted instruction;
  inclusive  samples with the function anywhere on the stack;
  operator   the innermost query operator on the stack (the executing
             method of a vedb::query plan node, the push-down merge or a
             storage-side task), or "(no operator)".

A name from a shared library carries the library's name in brackets. A
library without debugging symbols (libc, usually) resolves to its nearest
exported symbol, so read its names as "somewhere in that library": memcpy,
memset and malloc's internals in libc's case.

Exits 1 when no frame resolves to a vedb:: function: the build lacked
symbols, or the sampler never reached the program's code.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

# The methods that run one operator's own work. Execute and ExecuteLocal
# are the names these had before the executor passed row batches.
OPERATOR = re.compile(
    r"^vedb::query::(\w+)::(Run|RunLocal|Execute|ExecuteLocal|ExecutePages|"
    r"ExecuteFragment|HandleEbpExec|HandlePsExec)\(")


def load(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            fields = line.split()
            if not fields or fields[0] == "#":
                continue
            if fields[0] == "map":
                start, end, offset = (int(x, 16) for x in fields[1:4])
                maps.append((start, end, offset, " ".join(fields[4:])))
            elif fields[0] == "s" and len(fields) > 1:
                samples.append([int(x, 16) for x in fields[1:]])
    maps.sort()
    return maps, samples


def addr2line(module, addresses):
    """Maps each address in `module` to its inline chain, innermost first."""
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", module],
        input="".join("%x\n" % a for a in addresses),
        capture_output=True, text=True, check=False)
    chains, current = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = chains.setdefault(int(line, 16), [])
            i += 1
            continue
        # Function name, then its file:line.
        if current is not None and line != "??":
            current.append(line)
        i += 2
    return chains


def symbolize(maps, samples):
    """Maps each looked-up address (a leaf, or a return address less one)
    to its inline chain, innermost first."""
    starts = [m[0] for m in maps]
    program = maps[0][3] if maps else None
    wanted = collections.defaultdict(set)  # module -> file-relative addrs
    where = {}
    for sample in samples:
        for depth, pc in enumerate(sample):
            # A return address points past its call; look up the call.
            at = pc if depth == 0 else pc - 1
            if at in where:
                continue
            m = bisect.bisect_right(starts, at) - 1
            if m < 0 or at >= maps[m][1]:
                where[at] = None
                continue
            start, _, offset, module = maps[m]
            rel = at - start + offset
            where[at] = (module, rel)
            wanted[module].add(rel)
    resolved = {}
    for module, addrs in wanted.items():
        chains = addr2line(module, sorted(addrs))
        for rel, chain in chains.items():
            resolved[(module, rel)] = chain
    names = {}
    for at, loc in where.items():
        chain = resolved.get(loc) if loc else None
        module = loc[0].rsplit("/", 1)[-1] if loc else "?"
        if not chain:
            chain = ["??"]
        if not loc or loc[0] != program:
            chain = ["%s [%s]" % (name, module) for name in chain]
        names[at] = chain
    return names


def table(title, counts, total, top):
    print("%s (%d samples)" % (title, total))
    for name, n in counts.most_common(top):
        print("  %6.2f%%  %s" % (100.0 * n / total, name[:150]))
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    maps, samples = load(args.profile)
    if not samples:
        print("no samples in %s" % args.profile)
        return 1
    names = symbolize(maps, samples)
    leaf = collections.Counter()
    inclusive = collections.Counter()
    operator = collections.Counter()
    resolved_vedb = False
    for sample in samples:
        chains = [names[pc if d == 0 else pc - 1]
                  for d, pc in enumerate(sample)]
        leaf[chains[0][0]] += 1
        seen = set()
        op = None
        for chain in chains:
            for name in chain:
                seen.add(name)
                if op is None:
                    m = OPERATOR.match(name)
                    if m:
                        op = "%s::%s" % (m.group(1), m.group(2))
        resolved_vedb |= any(n.startswith("vedb::") for n in seen)
        for name in seen:
            inclusive[name] += 1
        operator[op or "(no operator)"] += 1

    total = len(samples)
    unwound = sum(1 for s in samples if len(s) > 1)
    print("%s: %d samples, %.1f%% with a stack above the leaf\n" %
          (args.profile, total, 100.0 * unwound / total))
    table("leaf", leaf, total, args.top)
    table("inclusive", inclusive, total, args.top)
    table("innermost query operator", operator, total, args.top)
    if not resolved_vedb:
        print("no frame resolved to a vedb:: function")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
