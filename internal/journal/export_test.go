package journal

// Fixtures shared with the external journal_test package.
var (
	FleetFactory      = fleetFactory
	WriteFleetJournal = writeFleetJournal
)
