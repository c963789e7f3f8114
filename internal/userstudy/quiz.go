// The §7.3 explainability study: the nine Appendix-C questions, the three
// user strategies as algorithms, and the grading harness producing the
// Figure 13 correct rates.
package userstudy

import (
	"clx/internal/benchsuite"
	"clx/internal/cluster"
	"clx/internal/pattern"
	"clx/internal/simuser"
)

// Question is one Appendix-C multiple-choice question. The Desired field is
// the normatively correct transformation — what a user who simply trusts
// the tool expects; grading compares each strategy's prediction with the
// tool's *actual* behavior on the input.
type Question struct {
	// Task indexes Table 5's tasks (0 = FlashFill Example 11, 1 = PredProg
	// Example 3, 2 = SyGus phone-10-long).
	Task int
	// Input is the probe string x.
	Input string
	// Choices are options A–C; "None of the above" is implicit choice 3.
	Choices [3]string
	// Desired is the normatively correct output.
	Desired string
}

// NoneOfTheAbove is the implicit fourth choice index.
const NoneOfTheAbove = 3

// AppCQuestions returns the nine questions of Appendix C.
func AppCQuestions() []Question {
	return []Question{
		// Task 1: names to "Last, First [Middle]".
		{Task: 0, Input: "Barack Obama",
			Choices: [3]string{"Obama", "Barack, Obama", "Obama, Barack"},
			Desired: "Obama, Barack"},
		{Task: 0, Input: "Barack Hussein Obama",
			Choices: [3]string{"Obama, Barack Hussein", "Obama, Barack", "Obama, Hussein"},
			Desired: "Obama, Barack Hussein"},
		{Task: 0, Input: "Obama, Barack Hussein",
			Choices: [3]string{"Obama, Barack Hussein", "Obama, Barack", "Obama, Hussein"},
			Desired: "Obama, Barack Hussein"},
		// Task 2: addresses to city.
		{Task: 1, Input: "155 Main St, San Diego, CA 92173",
			Choices: [3]string{"San", "San Diego", "St, San"},
			Desired: "San Diego"},
		{Task: 1, Input: "14820 NE 36th Street, Redmond, WA 98052",
			Choices: [3]string{"Redmond", "WA", "Street, Redmond"},
			Desired: "Redmond"},
		{Task: 1, Input: "12 South Michigan Ave, Chicago",
			Choices: [3]string{"South Michigan", "Chicago", "Ave, Chicago"},
			Desired: "Chicago"},
		// Task 3: international phones to "+N (NNN) NNN-NNN".
		{Task: 2, Input: "+1 (844) 332-282",
			Choices: [3]string{"+1 (844) 282-332", "+1 (844) 332-282", "+1 (844)332-282"},
			Desired: "+1 (844) 332-282"},
		{Task: 2, Input: "844.332.282",
			Choices: [3]string{"+844 (332)-282", "+844 (332) 332-282", "+1 (844) 332-282"},
			Desired: "+1 (844) 332-282"},
		{Task: 2, Input: "+1 (844) 332-282 ext57",
			Choices: [3]string{"+1 (844) 322-282", "+1 (844) 332-282 ext57", "+1 (844) 282-282 ext57"},
			Desired: "+1 (844) 332-282 ext57"},
	}
}

// choiceOf maps an output string to the choice index it corresponds to.
func (q Question) choiceOf(out string) int {
	for i, c := range q.Choices {
		if out == c {
			return i
		}
	}
	return NoneOfTheAbove
}

// QuizResult holds the Figure 13 outcome for one system.
type QuizResult struct {
	System string
	// CorrectByTask is the per-task correct rate over its 3 questions.
	CorrectByTask [3]float64
	// Overall is the rate over all 9 questions.
	Overall float64
}

// taskUser bundles, for one system on one task, the tool's actual behavior
// on novel inputs and the user strategy predicting it.
type taskUser struct {
	actual  func(string) string
	predict func(Question) string
}

// clxUser and rrUser mentally execute the explained Replace operations: the
// prediction *is* the tool's behavior.
func clxUser(in, want []string) taskUser {
	apply := simuser.SimulateCLX(in, want, simuser.DefaultOptions()).Applier()
	return taskUser{actual: apply, predict: func(q Question) string { return apply(q.Input) }}
}

func rrUser(in, want []string) taskUser {
	res := simuser.SimulateRegexReplace(in, want)
	actual := func(s string) string {
		if out, ok := res.Ops.Apply(s); ok {
			return out
		}
		return s
	}
	return taskUser{actual: actual, predict: func(q Question) string { return actual(q.Input) }}
}

// ffUser reasons by analogy — the only strategy an opaque program affords.
// The mental model anchors on the defining first example they typed
// (anchoring: later examples are corrections absorbed into invisible
// program state): for an input matching the anchor's format they predict
// the desired transformation; for anything else they cannot tell what the
// program will do and fall back to "None of the above". This is the
// behavioral model behind the paper's observation that FlashFill users
// "have inadequate insights on how the logic will work" (§7.3).
func ffUser(in, want []string) taskUser {
	res := simuser.SimulateFlashFill(in, want)
	actual := func(s string) string {
		if res.Program == nil {
			return s
		}
		out, err := res.Program.Apply(s)
		if err != nil {
			return ""
		}
		return out
	}
	var anchor pattern.Pattern
	if len(res.Examples) > 0 {
		anchor = cluster.Generalize(pattern.FromString(res.Examples[0].In), cluster.QuantToPlus)
	}
	predict := func(q Question) string {
		if len(res.Examples) > 0 && anchor.Matches(q.Input) {
			return q.Desired
		}
		return "" // "None of the above"
	}
	return taskUser{actual: actual, predict: predict}
}

// RunQuiz runs the §7.3 study: each Table 5 task is first solved with each
// system (producing its actual program), then the Appendix-C questions are
// answered with the strategy the system affords and graded against the
// actual tool behavior.
func RunQuiz() []QuizResult {
	tasks := benchsuite.ExplainabilityTasks()
	questions := AppCQuestions()

	systems := []struct {
		name string
		run  func(in, want []string) taskUser
	}{
		{"CLX", clxUser},
		{"FlashFill", ffUser},
		{"RegexReplace", rrUser},
	}

	var out []QuizResult
	for _, sys := range systems {
		r := QuizResult{System: sys.name}
		var perTask [3]taskUser
		for ti := range tasks {
			perTask[ti] = sys.run(tasks[ti].Inputs, tasks[ti].Outputs)
		}
		var taskCorrect, taskTotal [3]int
		for _, q := range questions {
			u := perTask[q.Task]
			got := q.choiceOf(u.actual(q.Input))
			want := q.choiceOf(u.predict(q))
			taskTotal[q.Task]++
			if got == want {
				taskCorrect[q.Task]++
			}
		}
		total, correct := 0, 0
		for ti := 0; ti < 3; ti++ {
			r.CorrectByTask[ti] = float64(taskCorrect[ti]) / float64(taskTotal[ti])
			total += taskTotal[ti]
			correct += taskCorrect[ti]
		}
		r.Overall = float64(correct) / float64(total)
		out = append(out, r)
	}
	return out
}

// TaskSessions runs the Table 5 tasks on all three systems with the cost
// model, for the Figure 14 completion-time comparison.
func TaskSessions(c Costs) [3][3]Session {
	tasks := benchsuite.ExplainabilityTasks()
	var out [3][3]Session
	for ti, task := range tasks {
		clx, ff, rr := Run(task.Inputs, task.Outputs, c)
		out[ti] = [3]Session{clx, ff, rr}
	}
	return out
}
