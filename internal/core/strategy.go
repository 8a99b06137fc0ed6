// Package core implements the paper's configurable middleware services —
// admission control (AC), idle resetting (IR), and load balancing (LB) —
// together with the task effector (TE) and subtask execution logic, bound to
// the discrete-event simulation substrate for the schedulability
// experiments. The same policy objects (Controller, IdleResetter) are reused
// by the live component binding in internal/live.
//
// Strategies follow Section 4 of the paper: the AC service tests
// admissibility per task or per job; the IR service resets the contributions
// of completed subjobs never, per task (aperiodic subjobs only), or per job
// (aperiodic and periodic subjobs); the LB service assigns subtasks to
// replicas never, per task, or per job. The AC-per-task/IR-per-job
// combination is contradictory and rejected, leaving 15 valid combinations.
package core

import (
	"fmt"
	"strings"
)

// Strategy is a configuration value for one of the three service axes.
type Strategy int

// Strategy values. The paper abbreviates them N, T and J. Enums start at one
// so an unset strategy is detectable.
const (
	// StrategyNone disables the service (valid for IR and LB only).
	StrategyNone Strategy = iota + 1
	// StrategyPerTask applies the service once per task, at first arrival.
	StrategyPerTask
	// StrategyPerJob applies the service at every job arrival.
	StrategyPerJob
)

// String returns the paper's single-letter abbreviation.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "N"
	case StrategyPerTask:
		return "T"
	case StrategyPerJob:
		return "J"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy converts a paper abbreviation (N/T/J, case-insensitive, also
// accepting "none", "task"/"per-task", "job"/"per-job") to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "n", "none":
		return StrategyNone, nil
	case "t", "task", "per-task", "pertask", "pt":
		return StrategyPerTask, nil
	case "j", "job", "per-job", "perjob", "pj":
		return StrategyPerJob, nil
	default:
		return 0, fmt.Errorf("core: unknown strategy %q", s)
	}
}

// Config selects one strategy per service axis. The paper denotes a
// configuration as a three-element tuple AC_IR_LB, e.g. "J_T_N" for
// admission control per job, idle resetting per task, and no load balancing.
type Config struct {
	// AC is the admission control strategy: StrategyPerTask or
	// StrategyPerJob. Admission control is always present; "none" is not an
	// option on this axis (Figure 2).
	AC Strategy
	// IR is the idle resetting strategy: StrategyNone, StrategyPerTask
	// (report completed aperiodic subjobs only) or StrategyPerJob (report
	// completed aperiodic and periodic subjobs).
	IR Strategy
	// LB is the load balancing strategy: StrategyNone, StrategyPerTask
	// (assign once at first arrival) or StrategyPerJob (reassign at every
	// job arrival).
	LB Strategy
}

// String formats the configuration as the paper's tuple, e.g. "T_N_J".
func (c Config) String() string {
	return c.AC.String() + "_" + c.IR.String() + "_" + c.LB.String()
}

// MarshalText encodes the configuration as its tuple string, so a Config
// field of a JSON document reads "T_N_J".
func (c Config) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// ParseConfig parses a tuple such as "J_T_N" (case-insensitive).
func ParseConfig(s string) (Config, error) {
	parts := strings.Split(strings.TrimSpace(s), "_")
	if len(parts) != 3 {
		return Config{}, fmt.Errorf("core: config %q is not a three-element AC_IR_LB tuple", s)
	}
	var c Config
	var err error
	if c.AC, err = ParseStrategy(parts[0]); err != nil {
		return Config{}, fmt.Errorf("core: config %q: AC: %w", s, err)
	}
	if c.IR, err = ParseStrategy(parts[1]); err != nil {
		return Config{}, fmt.Errorf("core: config %q: IR: %w", s, err)
	}
	if c.LB, err = ParseStrategy(parts[2]); err != nil {
		return Config{}, fmt.Errorf("core: config %q: LB: %w", s, err)
	}
	return c, c.Validate()
}

// Validate checks that the configuration is one of the paper's 15 reasonable
// combinations. Per Section 4.5, AC-per-task with IR-per-job is
// contradictory: per-job idle resetting removes the synthetic utilization of
// completed periodic subjobs from the admission controller, while per-task
// admission control requires that utilization to stay reserved so admitted
// periodic tasks can release jobs without re-testing.
func (c Config) Validate() error {
	switch c.AC {
	case StrategyPerTask, StrategyPerJob:
	case StrategyNone:
		return fmt.Errorf("core: config %s: admission control cannot be disabled", c)
	default:
		return fmt.Errorf("core: config %s: invalid AC strategy", c)
	}
	switch c.IR {
	case StrategyNone, StrategyPerTask, StrategyPerJob:
	default:
		return fmt.Errorf("core: config %s: invalid IR strategy", c)
	}
	switch c.LB {
	case StrategyNone, StrategyPerTask, StrategyPerJob:
	default:
		return fmt.Errorf("core: config %s: invalid LB strategy", c)
	}
	if c.AC == StrategyPerTask && c.IR == StrategyPerJob {
		return fmt.Errorf("core: config %s: per-task admission control contradicts per-job idle resetting", c)
	}
	return nil
}

// AllCombinations returns the 15 valid strategy combinations in the order
// the paper's figures use: T_N_N, T_N_T, T_N_J, T_T_N, ..., J_J_J.
func AllCombinations() []Config {
	acs := []Strategy{StrategyPerTask, StrategyPerJob}
	others := []Strategy{StrategyNone, StrategyPerTask, StrategyPerJob}
	out := make([]Config, 0, 15)
	for _, ac := range acs {
		for _, ir := range others {
			for _, lb := range others {
				c := Config{AC: ac, IR: ir, LB: lb}
				if c.Validate() == nil {
					out = append(out, c)
				}
			}
		}
	}
	return out
}
