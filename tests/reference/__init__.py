"""Per-event reference engines, one module per pipeline layer.

Every production stage in ``src/repro`` is a vectorized kernel over
columns.  The modules here are its event-at-a-time form — one Python
object per dynamic instruction, per classified event, per timing op —
kept only so the differential tests can pin the production engines to
them:

* :mod:`~tests.reference.executor` — the per-warp SIMT executor
  (reference warp order for the lockstep engine);
* :mod:`~tests.reference.trace` — ``TraceEvent``/``WarpTrace``/
  ``KernelTrace`` and the ``to_trace``/``from_trace`` converters;
* :mod:`~tests.reference.classify` — the sidecar-state tracker;
* :mod:`~tests.reference.interpret` — ``ArchitectureView``;
* :mod:`~tests.reference.timing` — per-event timing-op lowering;
* :mod:`~tests.reference.sm` — the cycle-level SM simulator;
* :mod:`~tests.reference.power` — per-event power accounting;
* :mod:`~tests.reference.columns` — chunk reassembly and exact
  column comparison;
* :mod:`~tests.reference.regfile_bank` — a structural byte-rotated
  register bank.

``src/repro`` never imports this package.
"""
