package authority

import "repro/internal/obs"

// metrics are the authority counters, shared by every replica built
// against the same registry. With observability off each field is nil
// and every hook is a single nil check (the obs package's no-op
// contract), so registry-off runs stay byte-identical.
type metrics struct {
	dkgRounds  *obs.Counter
	complaints *obs.Counter
	reshares   *obs.Counter
	commands   *obs.Counter
	cmdFailed  *obs.Counter
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		dkgRounds:  r.Counter("authority_dkg_rounds_total", "DKG round deadlines processed across replicas"),
		complaints: r.Counter("authority_complaints_total", "public complaints witnessed in DKG sharing and extraction"),
		reshares:   r.Counter("authority_reshares_total", "resharing sessions committed"),
		commands:   r.Counter("authority_commands_total", "threshold commands combined and adopted"),
		cmdFailed:  r.Counter("authority_command_failures_total", "signing sessions that failed to combine"),
	}
}
