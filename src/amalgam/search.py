"""The one injective backtracking search behind every embedding
enumerator, in a module of its own so that ``amalgam.k1`` reaches it
without importing the plain structures."""

from __future__ import annotations

from typing import Any, Callable, Collection, Mapping, Optional, Sequence


def backtrack(slots: Sequence[int], pools: Sequence[Sequence[int]],
              fixed: Mapping[int, int],
              feasible: Callable[[dict[int, int], int], bool],
              accept: Callable[[dict[int, int]], Any],
              first_only: bool,
              touching: Optional[Collection[int]]) -> list:
    """Every injective extension of ``fixed`` that sends ``slots[i]`` into
    ``pools[i]``, in lexicographic order of the image sequence.

    Slots are filled in order, each from its pool in pool order, and a
    partial map is pursued only while ``feasible(mapping, slot)`` holds
    for the slot just assigned.  ``feasible`` runs after every
    assignment, in slot order, and every earlier slot passed it when it
    was placed; so when the caller has checked the pins in ``fixed`` the
    same way, it need look only at what the new pair adds.  At a full
    map, ``accept(mapping)`` returns a result, or None to drop the map.
    A caller whose ``feasible`` decides everything only builds there
    (``structures.enumerate_embeddings``); one with a check that needs
    the whole map makes it there (``k1.embeddings.enumerate_matches``).
    ``accept`` must copy ``mapping`` to keep it, as the search goes on
    changing it.  ``first_only`` stops at the first result.

    With ``touching``, only maps with some image in it: unless ``fixed``
    already touches, the last slot whose pool meets ``touching`` draws
    from it alone while no image touches yet, and when no slot's pool
    meets it there is no result.
    """
    mapping = dict(fixed)
    used = set(mapping.values())
    if len(used) != len(mapping):
        return []
    pin, touch = -1, []
    if touching is not None and not any(y in touching for y in used):
        meets = [i for i, pool in enumerate(pools)
                 if any(y in touching for y in pool)]
        if not meets:
            return []
        pin = meets[-1]
        touch = [y for y in pools[pin] if y in touching]
    results: list = []

    def search(i: int) -> bool:
        if i == len(slots):
            found = accept(mapping)
            if found is None:
                return False
            results.append(found)
            return first_only
        x = slots[i]
        pool = pools[i]
        if i == pin and not any(y in touching for y in used):
            pool = touch
        for y in pool:
            if y in used:
                continue
            mapping[x] = y
            used.add(y)
            if feasible(mapping, x) and search(i + 1):
                return True
            used.discard(y)
            del mapping[x]
        return False

    search(0)
    return results
