"""Load/store disambiguation.

The store queue holds the in-flight store uops themselves, in program
order: a store's ``addr`` is ``None`` until its AGU runs and
``is_byte`` gives its access size.  The pipeline uses conservative
memory disambiguation: a load with a computed address may proceed only
once every older store's address is known.  Matching word-sized pairs
forward store data in the LSQ; size-mismatched overlaps wait for the
store to retire (then read the committed memory image).  This policy is
conservative but never wrong, which keeps the retirement checker exact.
"""


def word_of(addr):
    return addr & ~3


def scan_older_stores(stores, load_uop, load_addr, load_is_byte):
    """Disambiguate *load_uop* against the older store uops in *stores*.

    Returns one of:
      ("wait", blocking_uop)  — an older store blocks the load
      ("forward", store_uop)  — forward that store's data
      ("memory", None)        — no conflict; read committed memory
    """
    best = None
    for store in stores:
        if store.seq >= load_uop.seq or store.squashed:
            continue
        addr = store.addr
        if addr is None:
            return "wait", store
        if word_of(addr) != word_of(load_addr):
            continue
        if store.is_byte == load_is_byte and addr == load_addr:
            if best is None or store.seq > best.seq:
                best = store
        else:
            # Partial/mismatched overlap: wait for the store to retire.
            return "wait", store
    if best is not None:
        return "forward", best
    return "memory", None
