.PHONY: all check build test gates fmt clean

all: check

build:
	dune build @all

test:
	dune runtest

check: build test

# The benchmark gates (bench/gates.ml), each a claim checked at a fixed
# size and threshold:
#   parallel  the pooled 1M-tuple join gives the sequential rows; >= 1.5x
#             faster, and the pooled figure-3 sweep not slower, on >= 4 cores
#   wcoj      on the dense 3-COLOR panel the generic join's max arity stays
#             within bucket elimination's; >= 1.2x faster where the gate
#             picks it
#   ghd       on the 6x6 grid the decomposition is >= 1.1x faster where the
#             gate picks it; the pooled cell sweep gives the sequential
#             cardinalities and is not slower on >= 4 cores
#   enum      the drained stream is the materialized answer; the first
#             streamed tuple arrives >= 5x sooner than the full answer
#   adaptive  the feedback-corrected plan gives the same answer with >= 1.2x
#             less measured work and no more than 1.05x the wall time
#   soak      the serving contract under 200 concurrent mixed requests, over
#             a Unix socket and over TCP
# Verdicts land in BENCH_results.json; any failed gate exits non-zero.
gates:
	dune exec bench/gates.exe -- --json BENCH_results.json

# Requires ocamlformat; no-op-safe when it is not installed.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote; \
	else \
		echo "ocamlformat not installed; skipping"; \
	fi

clean:
	dune clean
