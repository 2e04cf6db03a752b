package memctrl

import (
	"fmt"
	"strings"
)

// PDPolicy selects when the controller drops an idle rank into a
// power-down state (DESIGN.md §4f). The zero value reproduces the
// pre-FSM behavior: immediate fast-exit precharge power-down.
type PDPolicy uint8

const (
	// PDImmediate powers a rank down the first scheduling pass it is
	// idle (no queued work, no open banks, no refresh due). Maximum
	// residency, but a request arriving right after entry pays the
	// tCKE+tXP round trip.
	PDImmediate PDPolicy = iota
	// PDNone never powers ranks down (the power-management ablation
	// baseline; self-refresh escalation may still apply).
	PDNone
	// PDTimed powers a rank down once it has been idle for PDTimeout
	// memory cycles — a hysteresis that avoids thrashing entry/exit on
	// short idle gaps.
	PDTimed
	// PDQueueAware behaves like PDImmediate while the whole channel is
	// empty but applies the PDTimeout hysteresis when other ranks still
	// have queued work (bank-parallel phases tend to spread requests
	// across ranks, so channel activity predicts near-term rank work).
	PDQueueAware
)

// pdPolicyNames indexes PDPolicy.
var pdPolicyNames = [...]string{"immediate", "none", "timeout", "queue"}

// String names the policy as accepted by ParsePDPolicy.
func (p PDPolicy) String() string {
	if int(p) < len(pdPolicyNames) {
		return pdPolicyNames[p]
	}
	return fmt.Sprintf("PDPolicy(%d)", uint8(p))
}

// ParsePDPolicy resolves a power-down policy name ("immediate", "none",
// "timeout", "queue").
func ParsePDPolicy(name string) (PDPolicy, error) {
	for i, n := range pdPolicyNames {
		if strings.EqualFold(name, n) {
			return PDPolicy(i), nil
		}
	}
	return 0, fmt.Errorf("memctrl: unknown power-down policy %q (want one of %s)",
		name, strings.Join(pdPolicyNames[:], ", "))
}

// RefreshMode selects the controller's refresh management discipline.
// The zero value is the conventional all-bank refresh of the pre-FSM
// simulator.
type RefreshMode uint8

const (
	// RefreshAllBank issues one all-bank REF per rank every tREFI,
	// blocking the whole rank for tRFC.
	RefreshAllBank RefreshMode = iota
	// RefreshPerBank round-robins per-bank REFpb commands at a
	// tREFI/banks cadence; only the target bank blocks, for tRFCpb.
	RefreshPerBank
	// RefreshElastic keeps all-bank REF but exploits the JEDEC 8x tREFI
	// elasticity: refreshes are postponed while a rank has work and
	// pulled in (up to the 8-interval credit) before the rank powers
	// down, so sleeps are not cut short by refresh wakes.
	RefreshElastic
)

// refreshModeNames indexes RefreshMode.
var refreshModeNames = [...]string{"allbank", "perbank", "elastic"}

// String names the mode as accepted by ParseRefreshMode.
func (m RefreshMode) String() string {
	if int(m) < len(refreshModeNames) {
		return refreshModeNames[m]
	}
	return fmt.Sprintf("RefreshMode(%d)", uint8(m))
}

// ParseRefreshMode resolves a refresh-mode name ("allbank", "perbank",
// "elastic"; "postpone" is accepted as an alias for "elastic").
func ParseRefreshMode(name string) (RefreshMode, error) {
	if strings.EqualFold(name, "postpone") {
		return RefreshElastic, nil
	}
	for i, n := range refreshModeNames {
		if strings.EqualFold(name, n) {
			return RefreshMode(i), nil
		}
	}
	return 0, fmt.Errorf("memctrl: unknown refresh mode %q (want one of %s)",
		name, strings.Join(refreshModeNames[:], ", "))
}
