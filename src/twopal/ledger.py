"""Query accounting: counts input-symbol reads in the query-complexity model.

Classical reads and quantum-charged oracle queries are tracked separately so
experiments can report both sides of a tester's cost. Counters only grow.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QueryLedger:
    """Mutable counters for one algorithm invocation.

    classical_reads: direct reads of input symbols.
    quantum_charged: input queries attributed to simulated oracle applications.
    predicate_calls: predicate evaluations charged by a simulated search.
    uncharged_reads: symbols the simulation reads privately to find a
    search's solutions; never part of total_charged or any report.
    """

    classical_reads: int = 0
    quantum_charged: int = 0
    predicate_calls: int = 0
    uncharged_reads: int = 0

    def read_classical(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("ledger counts only increase")
        self.classical_reads += count

    def charge_quantum(self, count: int) -> None:
        if count < 0:
            raise ValueError("ledger counts only increase")
        self.quantum_charged += count

    def charge_predicate(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("ledger counts only increase")
        self.predicate_calls += count

    def read_uncharged(self, count: int) -> None:
        if count < 0:
            raise ValueError("ledger counts only increase")
        self.uncharged_reads += count

    @property
    def total_charged(self) -> int:
        """All charged input queries, classical plus quantum."""
        return self.classical_reads + self.quantum_charged
