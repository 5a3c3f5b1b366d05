# Convenience targets for the subpage-GMS reproduction.

PYTHON ?= python3
CSV_DIR ?= out/csv

.PHONY: install test figures scorecard csv examples all clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

figures:
	$(PYTHON) -m repro.experiments --all

scorecard:
	$(PYTHON) -m repro.experiments scorecard

csv:
	$(PYTHON) -m repro.experiments --all --csv $(CSV_DIR)

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

all: test figures

clean:
	rm -rf out .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
