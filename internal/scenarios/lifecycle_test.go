package scenarios

import (
	"testing"
	"testing/quick"
)

func TestPaperStepCounts(t *testing.T) {
	// §2: seven install steps, ten update steps per client.
	if got := len(traditionalInstall()); got != 7 {
		t.Errorf("traditional install steps = %d, want 7", got)
	}
	if got := len(traditionalUpdate()); got != 10 {
		t.Errorf("traditional update steps = %d, want 10 (steps 8-10 incl. repeat of 1-7)", got)
	}
	// §3.2: four install steps, one update step.
	if got := len(drivolutionInstall()); got != 4 {
		t.Errorf("drivolution install steps = %d, want 4", got)
	}
	if got := len(drivolutionUpdate()); got != 1 {
		t.Errorf("drivolution update steps = %d, want 1", got)
	}
}

func TestUpdateScaling(t *testing.T) {
	// "The upgrade process drops from ten steps per client application
	// to one simple insert operation on the Drivolution Server" (§3.2).
	const clients = 100
	trad := countSteps(traditionalUpdate(), clients)
	drv := countSteps(drivolutionUpdate(), clients)
	if trad.steps != 10*clients {
		t.Errorf("traditional steps for %d clients = %d, want %d", clients, trad.steps, 10*clients)
	}
	if drv.steps != 1 {
		t.Errorf("drivolution steps = %d, want 1 regardless of client count", drv.steps)
	}
	// Traditional updates stop every application; Drivolution stops none.
	if trad.disruptive != clients {
		t.Errorf("traditional disruptive = %d, want %d", trad.disruptive, clients)
	}
	if drv.disruptive != 0 {
		t.Errorf("drivolution disruptive = %d, want 0", drv.disruptive)
	}
}

func TestScalingProperty(t *testing.T) {
	// Drivolution update cost is constant in client count; traditional
	// is linear. Check across arbitrary client counts.
	prop := func(n uint8) bool {
		clients := int(n%100) + 1
		trad := countSteps(traditionalUpdate(), clients)
		drv := countSteps(drivolutionUpdate(), clients)
		return trad.steps == 10*clients && drv.steps == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable5Verbatim(t *testing.T) {
	rows := table5()
	if len(rows) != 2 {
		t.Fatalf("Table 5 rows = %d", len(rows))
	}
	if rows[0].task != "Accessing a new database" || len(rows[0].current) != 6 || len(rows[0].drivolution) != 2 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].task != "Database driver upgrade" || len(rows[1].current) != 6 || len(rows[1].drivolution) != 2 {
		t.Errorf("row 1 = %+v", rows[1])
	}
}
