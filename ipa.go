// Package ipa is the public API of the IPA framework — a Go reproduction
// of "Framework for Interactive Parallel Dataset Analysis on the Grid"
// (Alexander, Ananthan, Johnson, Serbo; ICPP Workshops 2006).
//
// The package re-exports the user-facing pieces of the internal packages:
// the LocalGrid harness (a complete single-process Grid site), the Client
// (the JAS3-analogue the scientist drives), the event generator and
// dataset tooling, and the performance experiments that regenerate the
// paper's evaluation. See README.md for a quickstart and the architecture,
// and ROADMAP.md item 12 for reproducing the evaluation on the live
// pipeline.
package ipa

import (
	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/core"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/gsi"
	"github.com/ipa-grid/ipa/internal/perf"
)

// Version identifies the release.
const Version = "1.0.0"

// Re-exported types: the grid harness and client.
type (
	// LocalGrid is a complete in-process Grid site on loopback TCP.
	LocalGrid = core.LocalGrid
	// GridOptions size a LocalGrid.
	GridOptions = core.GridOptions
	// Client drives a manager node (connect, session, catalog, code,
	// controls, result polling).
	Client = core.Client
	// CatalogEntry is a catalog browse/search row.
	CatalogEntry = core.CatalogEntry
	// Update is one result-poll outcome.
	Update = core.Update
	// FabricStatus is the live merge-fabric snapshot served as JSON at
	// ipa-manager's /fabric/status endpoint.
	FabricStatus = core.FabricStatus
	// ShardStatus / SessionPlacement are FabricStatus rows.
	ShardStatus = core.ShardStatus
	// SessionPlacement is one session's placement row.
	SessionPlacement = core.SessionPlacement
	// RelayStatus is one read-relay row in a FabricStatus: the fan-out
	// the relay tier absorbs and how stale its mirrors run.
	RelayStatus = core.RelayStatus
	// GenConfig parameterizes the Linear Collider event generator.
	GenConfig = events.GenConfig
	// Role is a VO authorization role.
	Role = gsi.Role
	// Histogram1D is the primary result object.
	Histogram1D = aida.Histogram1D
	// Tree holds analysis objects by path.
	Tree = aida.Tree
	// RenderOptions tune ASCII histogram rendering.
	RenderOptions = aida.RenderOptions
)

// VO roles.
const (
	RoleAnalyst = gsi.RoleAnalyst
	RoleAdmin   = gsi.RoleAdmin
	RoleMonitor = gsi.RoleMonitor
)

// HiggsAnalysisName is the registry key of the built-in reference
// analysis ("a Java algorithm that looks for Higgs Bosons", §4).
const HiggsAnalysisName = events.HiggsAnalysisName

// EventDecoderName is the script record decoder for LC events.
const EventDecoderName = events.EventDecoderName

// NewLocalGrid stands up a complete Grid site in this process.
func NewLocalGrid(opts GridOptions) (*LocalGrid, error) { return core.NewLocalGrid(opts) }

// Connect builds a client against a remote manager address.
var Connect = core.Connect

// RenderH1D renders a histogram as ASCII art.
var RenderH1D = aida.RenderH1D

// RenderTree summarizes a result tree.
var RenderTree = aida.RenderTree

// Perf experiment entry points (see cmd/ipa-bench for the full harness).
var (
	// PaperParams are the DES constants calibrated to the paper's tables.
	PaperParams = perf.PaperParams
	// SimulateGrid runs one staged-pipeline simulation.
	SimulateGrid = perf.SimulateGrid
	// SimulateLocal runs the desktop baseline.
	SimulateLocal = perf.SimulateLocal
)
