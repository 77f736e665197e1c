"""Report types shared by the faithfulness grid and the frame-condition suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Violation:
    """One failing instance of a check."""

    check: str
    formula: str | None
    model: str
    world: int | None

    def render(self) -> str:
        parts = []
        if self.formula is not None:
            parts.append(f"formula: {self.formula}")
        parts.append(self.model)
        if self.world is not None:
            parts.append(f"world: {self.world}")
        return "; ".join(parts)


@dataclass
class CheckReport:
    """Outcome of one named check: how many instances ran, how many failed."""

    name: str
    instances: int
    violation_count: int
    examples: list[Violation] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"check: {self.name}",
            f"instances checked: {self.instances}",
            f"violations: {self.violation_count}",
        ]
        for v in self.examples:
            lines.append(f"  {v.render()}")
        return "\n".join(lines)
