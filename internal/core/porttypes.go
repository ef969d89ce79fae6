package core

import "pperfgrid/internal/wsdl"

// PPerfGrid semantic-layer operation names (Tables 1 and 2 of the paper).
const (
	// Application PortType.
	OpGetAppInfo         = "getAppInfo"
	OpGetNumExecs        = "getNumExecs"
	OpGetExecQueryParams = "getExecQueryParams"
	OpGetAllExecs        = "getAllExecs"
	OpGetExecs           = "getExecs"

	// Execution PortType.
	OpGetInfo         = "getInfo"
	OpGetFoci         = "getFoci"
	OpGetMetrics      = "getMetrics"
	OpGetTypes        = "getTypes"
	OpGetTimeStartEnd = "getTimeStartEnd"
	OpGetPR           = "getPR"
	// OpPublishPR is the write-path extension to Table 2: live ingestion
	// of new Performance Results into a running Execution instance (the
	// paper's future-work "data streamed in from a running application").
	OpPublishPR = "publishPR"

	// Manager PortType (internal service, section 5.3.1.4).
	OpGetExecutions = "getExecutions"
)

// Service type names.
const (
	ApplicationType = "Application"
	ExecutionType   = "Execution"
	ManagerType     = "Manager"
)

// ApplicationPortType reproduces Table 1: the operations and semantics of
// the PPerfGrid Application interface.
func ApplicationPortType() wsdl.PortType {
	return wsdl.PortType{Name: ApplicationType, Operations: []wsdl.Operation{
		wsdl.Op(OpGetAppInfo,
			"Returns general information about the application, possibly including application name, version, etc. Returns an array of string values, each element of which should contain a name and a value delimited by the '|' character."),
		wsdl.Op(OpGetNumExecs,
			"Returns the number of unique executions available for the application as an integer."),
		wsdl.Op(OpGetExecQueryParams,
			"Returns a list of attributes that describe executions, arguments or run data, for example. Each attribute has associated with it a set of values, representing all unique possible values for that attribute. Returns an array of string values, each element of which should contain a name and a set of values delimited by the '|' character."),
		wsdl.Op(OpGetAllExecs,
			"Returns an array of Grid Service Handles (GSHs) representing an Execution service instance for each unique execution record. Returns an array of string values, each element of which should be a properly formatted GSH."),
		wsdl.Op(OpGetExecs,
			"Returns an array of Grid Service Handles (GSHs) representing an Execution service instance for each execution record matching the attribute and value passed as parameters. Returns an array of string values, each element of which should be a properly formatted GSH.",
			wsdl.P("attribute"), wsdl.P("value")),
	}}
}

// ExecutionPortType reproduces Table 2: the operations and semantics of
// the PPerfGrid Execution interface.
func ExecutionPortType() wsdl.PortType {
	return wsdl.PortType{Name: ExecutionType, Operations: []wsdl.Operation{
		wsdl.Op(OpGetInfo,
			"Returns general information about the Execution. Returns an array of string values, each element of which should contain a name and a value delimited by the '|' character."),
		wsdl.Op(OpGetFoci,
			"Returns a list of all possible unique focus values for the Execution (no duplicates) as an array of strings. Foci refer to the nodes of the resource hierarchy (e.g. /Process/27 or /Code/MPI/MPI_Comm_rank)."),
		wsdl.Op(OpGetMetrics,
			"Returns a list of all possible unique metric values for the Execution (no duplicates) as an array of strings. Metric refers to the measurements recorded in the dataset (e.g. func_calls, msg_deliv_time)."),
		wsdl.Op(OpGetTypes,
			"Returns a list of all possible unique type values for the Execution (no duplicates) as an array of strings. Type refers to the performance tool used to collect the data."),
		wsdl.Op(OpGetTimeStartEnd,
			"Returns a list of two values, the first representing the start time of the Execution and the second representing the end time of the Execution, as an array of strings."),
		wsdl.Op(OpGetPR,
			"Returns a list of Performance Results that meet the criteria given by the parameter values as an array of strings. Parameters are one Metric, a start time, an end time, one Type, and one or more Foci.",
			wsdl.P("metric"), wsdl.P("startTime"), wsdl.P("endTime"), wsdl.P("type"), wsdl.PRep("focus")),
		wsdl.Op(OpPublishPR,
			"Publishes one or more Performance Results into the Execution's data store — the live-ingestion write path. Parameters are encoded Performance Results ('metric|focus|type|start-end|value', the getPR wire form). On success the results are durable, immediately visible to subsequent getPR queries (cached envelopes from before the write are never served), and the call returns the number of results published.",
			wsdl.PRep("result")),
		wsdl.Op(OpGetPRAsync,
			"Callback-model variant of getPR (the registry-callback model of the paper's future work): acknowledges immediately and delivers the encoded result set to the given NotificationSink as one DeliverNotification on the prResults topic, tagged with the request ID.",
			wsdl.P("requestID"), wsdl.P("sinkHandle"), wsdl.P("metric"), wsdl.P("startTime"), wsdl.P("endTime"), wsdl.P("type"), wsdl.PRep("focus")),
	}}
}

// ManagerPortType describes the internal Manager grid service: it is
// accessed by Application service instances, not by clients (the paper
// notes grid services "need not be accessed only in the traditional
// client-server model").
func ManagerPortType() wsdl.PortType {
	return wsdl.PortType{Name: ManagerType, Operations: []wsdl.Operation{
		wsdl.Op(OpGetExecutions,
			"Returns an Execution service instance GSH for each unique execution ID passed as a parameter, creating instances through the Execution factories (interleaved across replica hosts) on first reference and returning cached GSHs thereafter.",
			wsdl.PRep("executionID")),
	}}
}

// ApplicationDefinition is the full WSDL definition of an Application
// service.
func ApplicationDefinition() *wsdl.Definition {
	return wsdl.New(ApplicationType, ApplicationPortType())
}

// ExecutionDefinition is the full WSDL definition of an Execution service.
func ExecutionDefinition() *wsdl.Definition {
	return wsdl.New(ExecutionType, ExecutionPortType())
}

// ManagerDefinition is the full WSDL definition of the Manager service.
func ManagerDefinition() *wsdl.Definition {
	return wsdl.New(ManagerType, ManagerPortType())
}
