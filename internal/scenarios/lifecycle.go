package scenarios

// The paper's operational argument as step lists: the §2
// state-of-the-art lifecycle (7 install steps, 10 update steps per
// client), the §3.2 Drivolution lifecycle (4 install steps, 1 update
// step in total), and Table 5's DBA procedures. T5 prints them and
// expands the update procedures over a client count.

// lifecycleStep is one lifecycle action.
type lifecycleStep struct {
	desc       string // the paper's wording for the step
	perClient  bool   // repeats for every client application/machine
	disruptive bool   // stops or restarts the application
}

// traditionalInstall is the paper's §2 lifecycle, steps 1–7.
func traditionalInstall() []lifecycleStep {
	return []lifecycleStep{
		{desc: "Get an appropriate driver package from vendor", perClient: true},
		{desc: "Install the driver on the client application machine", perClient: true},
		{desc: "Configure the client application to use the driver", perClient: true},
		{desc: "Start the application and load the database driver", perClient: true},
		{desc: "Connect to database and check protocol compatibility", perClient: true},
		{desc: "Authenticate", perClient: true},
		{desc: "Execute requests", perClient: true},
	}
}

// traditionalUpdate is the §2 update: steps 8–10, where step 10 is
// "repeat steps 1 through 7". The paper counts this as ten steps per
// client (§3.2); we keep that arithmetic by modelling step 10's
// coordination (scheduling the reinstall window) as its own manual step
// ahead of the seven replayed install actions.
func traditionalUpdate() []lifecycleStep {
	return append([]lifecycleStep{
		{desc: "Stop the application", perClient: true, disruptive: true},
		{desc: "Uninstall old driver", perClient: true},
		{desc: "Repeat steps 1 through 7 (schedule and coordinate the reinstall)", perClient: true},
	}, traditionalInstall()...)
}

// drivolutionInstall is the §3.2 lifecycle, steps 1–4.
func drivolutionInstall() []lifecycleStep {
	return []lifecycleStep{
		{desc: "Get an appropriate Drivolution bootloader", perClient: true},
		{desc: "Install the Drivolution bootloader on the client application machine", perClient: true},
		{desc: "Configure client application to use Drivolution bootloader", perClient: true},
		{desc: "Start the application", perClient: true},
	}
}

// drivolutionUpdate is the §3.2 single-step upgrade: "Add new driver to
// the Drivolution Server". It is central (not per client) and
// non-disruptive.
func drivolutionUpdate() []lifecycleStep {
	return []lifecycleStep{{desc: "Add new driver to the Drivolution Server"}}
}

// stepCount is a procedure expanded over a number of clients.
type stepCount struct {
	steps      int // total step executions
	disruptive int // of which stop/restart an application
}

// countSteps expands a procedure over n clients: per-client steps repeat
// n times, central steps once.
func countSteps(p []lifecycleStep, clients int) stepCount {
	var c stepCount
	for _, s := range p {
		times := 1
		if s.perClient {
			times = clients
		}
		c.steps += times
		if s.disruptive {
			c.disruptive += times
		}
	}
	return c
}

// table5Row is one task row of the paper's Table 5.
type table5Row struct {
	task        string
	current     []string // current state-of-the-art steps
	drivolution []string // Drivolution steps
}

// table5 returns the paper's Table 5 verbatim: driver procedures for a
// heterogeneous database with two DBAs.
func table5() []table5Row {
	return []table5Row{
		{
			task: "Accessing a new database",
			current: []string{
				"Download drivers for DBA1 platform",
				"Configure DBA1 console to find driver",
				"DBA1 connects to db",
				"Download drivers for DBA2 platform",
				"Configure DBA2 console to find driver",
				"DBA2 connects to db",
			},
			drivolution: []string{
				"DBA1 connects to db",
				"DBA2 connects to db",
			},
		},
		{
			task: "Database driver upgrade",
			current: []string{
				"Copy appropriate driver for DBA1 platform",
				"Remove DBA1 old driver",
				"Restart DBA1 console",
				"Copy right driver for DBA2 platform",
				"Remove DBA2 old driver",
				"Restart DBA2 console",
			},
			drivolution: []string{
				"Insert drivers in database",
				"Revoke old driver",
			},
		},
	}
}
