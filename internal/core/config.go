// Package core implements ALEX itself (paper §3.2, §4, §6): the engine that
// consumes user feedback on links, explores the feature space around
// approved links under a Monte-Carlo-learned ε-greedy policy, removes
// rejected links, and iterates policy evaluation / policy improvement
// episodes until the candidate link set converges.
//
// States are links; the feature set of the linked entity pair represents
// the state (§4.1). Actions choose one feature and explore the pre-computed
// feature space within ±StepSize of the approved link's value for that
// feature (§4.2). Rewards are user feedback (§4.3). The optimizations of §6
// — θ-filtering (delegated to internal/feature), equal-size partitioning
// with parallel exploration, the blacklist, and rollback — are all
// implemented and individually switchable so their effect can be measured
// (Figs 5-7).
package core

import (
	"runtime"

	"alex/internal/feature"
)

// Config holds ALEX's tunables. Zero values are replaced by the paper's
// defaults (§7.1, "Default Settings").
type Config struct {
	// StepSize is the exploration offset δ around a feature value: an
	// action admits links whose feature score lies in [v−δ, v+δ].
	// Paper default: 0.05.
	StepSize float64
	// EpisodeSize is the number of feedback items per episode across all
	// partitions. Paper default: 1000 (batch mode); 10 in the
	// specific-domain setting.
	EpisodeSize int
	// Epsilon is the ε of the ε-greedy policy.
	Epsilon float64
	// Theta is the feature-score threshold θ (§6.1), the engine's one θ:
	// it overwrites SpaceOptions.Theta. Paper default: 0.3.
	Theta float64
	// Partitions is the number of equal-size partitions of the larger data
	// set (§6.2). The paper uses 27; the default here is 8.
	Partitions int
	// Workers bounds the goroutines the engine runs concurrently for
	// feature-space construction and episode execution (§6.2's parallel
	// exploration, decoupled from the partition count so a machine with
	// fewer cores than partitions is not oversubscribed). 0 means
	// runtime.GOMAXPROCS(0); 1 forces serial execution. Results are
	// identical at any worker count for a fixed Seed, provided the judge's
	// verdicts do not depend on the order it is called in (a
	// feedback.Oracle with an error rate does).
	Workers int
	// MaxEpisodes caps the policy iteration (the paper stops at 100).
	MaxEpisodes int
	// BlacklistNegatives is the cumulative negative-feedback count at
	// which a link is blacklisted (prevented from ever being re-added).
	// The default of 1 matches the paper's main-body behavior ("when a
	// user provides negative feedback on a link she should not need to
	// provide this feedback again"); raise it to 2+ when feedback is
	// noisy, so a single erroneous rejection cannot permanently destroy a
	// correct link (Appendix C).
	BlacklistNegatives int
	// RollbackNegatives is the number of negative feedback items on links
	// generated by one state-action pair that triggers a rollback.
	RollbackNegatives int
	// MaxExplored bounds the number of links one action admits, preferring
	// links whose feature score is closest to the approved value. Without a
	// bound, an indistinct feature (the paper's owl:Thing example) can
	// flood the candidate set with the entire space in one action, which
	// rollback then spends whole episodes undoing. Set negative for
	// unlimited.
	MaxExplored int
	// Seed drives all stochastic choices; equal seeds reproduce runs.
	Seed int64
	// SpaceOptions configures feature-space construction; a zero field
	// takes the paper's default. Its Theta is always Config.Theta, and New
	// builds on Config.Workers whatever its Workers says.
	SpaceOptions feature.Options

	// The §6.3 blacklist and rollback optimizations and the feature prior
	// are on unless turned off with DisableBlacklist, DisableRollback or
	// DisableFeaturePrior, so a zero Config runs them all.
	blacklistOff, rollbackOff, featurePriorOff bool
}

// Defaults returns the paper's default configuration.
func Defaults() Config {
	return Config{
		StepSize:           0.05,
		EpisodeSize:        1000,
		Epsilon:            0.10,
		Theta:              0.3,
		Partitions:         8,
		MaxEpisodes:        100,
		BlacklistNegatives: 1,
		RollbackNegatives:  5,
		MaxExplored:        400,
		Seed:               1,
		SpaceOptions:       feature.DefaultOptions(),
	}
}

// withDefaults fills unset fields with paper defaults.
func (c Config) withDefaults() Config {
	d := Defaults()
	if c.StepSize == 0 {
		c.StepSize = d.StepSize
	}
	if c.EpisodeSize == 0 {
		c.EpisodeSize = d.EpisodeSize
	}
	if c.Epsilon == 0 {
		c.Epsilon = d.Epsilon
	}
	if c.Theta == 0 {
		c.Theta = d.Theta
	}
	if c.Partitions == 0 {
		c.Partitions = d.Partitions
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxEpisodes == 0 {
		c.MaxEpisodes = d.MaxEpisodes
	}
	if c.RollbackNegatives == 0 {
		c.RollbackNegatives = d.RollbackNegatives
	}
	if c.MaxExplored == 0 {
		c.MaxExplored = d.MaxExplored
	}
	if c.BlacklistNegatives == 0 {
		c.BlacklistNegatives = d.BlacklistNegatives
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.SpaceOptions.MaxBlockSize == 0 {
		c.SpaceOptions.MaxBlockSize = d.SpaceOptions.MaxBlockSize
	}
	c.SpaceOptions.Theta = c.Theta
	return c
}

// DisableBlacklist turns the blacklist optimization off (Fig 6 ablation).
func (c Config) DisableBlacklist() Config {
	c.blacklistOff = true
	return c
}

// DisableRollback turns the rollback optimization off (Fig 7 ablation).
func (c Config) DisableRollback() Config {
	c.rollbackOff = true
	return c
}

// DisableFeaturePrior turns the feature prior off (ablation). The prior is
// the partition-wide per-(feature, value-band) distinctiveness estimate
// that seeds new states' arbitrary actions and vetoes firmly-negative
// bands (the generalization of §4.2's "learn that this feature is not
// distinctive"); without it every new state starts with a uniformly random
// action and no value band is vetoed.
func (c Config) DisableFeaturePrior() Config {
	c.featurePriorOff = true
	return c
}
